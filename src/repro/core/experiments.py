"""The paper's two experiment types (Section III).

* **UNCONSTRAINED** — cores run free under the performance governor; the
  thermal stack throttles as it will.  Measures *performance* variation:
  leaky chips heat more, throttle more, complete fewer iterations.
* **FIXED-FREQUENCY** — all cores pinned at a low frequency guaranteed not
  to throttle, so every chip does (almost exactly) the same work.
  Measures *energy* variation, and doubles as the repeatability check:
  performance spread here should be negligible (the paper saw ≤1.3–2.63%
  RSD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.device.catalog import DeviceSpec
from repro.errors import ConfigurationError

#: Canonical experiment names, exactly as the paper prints them.
UNCONSTRAINED = "UNCONSTRAINED"
FIXED_FREQUENCY = "FIXED-FREQUENCY"


@dataclass(frozen=True)
class ExperimentSpec:
    """One workload definition.

    Attributes
    ----------
    name:
        ``UNCONSTRAINED`` or ``FIXED-FREQUENCY``.
    fixed_freq_mhz:
        Pinned frequency for FIXED-FREQUENCY runs; ``None`` otherwise.
    """

    name: str
    fixed_freq_mhz: Optional[float] = None

    def __post_init__(self) -> None:
        if self.name == UNCONSTRAINED:
            if self.fixed_freq_mhz is not None:
                raise ConfigurationError("UNCONSTRAINED takes no fixed frequency")
        elif self.name == FIXED_FREQUENCY:
            if self.fixed_freq_mhz is None or self.fixed_freq_mhz <= 0:
                raise ConfigurationError(
                    "FIXED-FREQUENCY requires a positive fixed frequency"
                )
        else:
            raise ConfigurationError(
                f"unknown experiment {self.name!r}; use "
                f"{UNCONSTRAINED!r} or {FIXED_FREQUENCY!r}"
            )


def unconstrained() -> ExperimentSpec:
    """The performance-variation experiment."""
    return ExperimentSpec(name=UNCONSTRAINED)


def fixed_frequency(
    device: DeviceSpec, freq_mhz: Optional[float] = None
) -> ExperimentSpec:
    """The energy-variation experiment for one device model.

    Uses the device catalog's calibrated never-throttles frequency unless
    the caller overrides it.
    """
    freq = freq_mhz if freq_mhz is not None else device.fixed_freq_mhz
    return ExperimentSpec(name=FIXED_FREQUENCY, fixed_freq_mhz=freq)
