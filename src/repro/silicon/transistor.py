"""Per-die silicon profiles.

A :class:`SiliconProfile` is the outcome of the manufacturing lottery for one
die: how far its threshold voltage landed from nominal, and the speed and
leakage consequences.  The paper (Section II) observes that because all cores
of a CPU come from the same patch of silicon, variation is *between CPUs*,
not between cores — so one profile describes a whole SoC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.silicon.process import ProcessNode


@dataclass(frozen=True)
class SiliconProfile:
    """The sampled process corner of one die.

    Attributes
    ----------
    vth_delta:
        Threshold-voltage deviation from the process nominal, volts.
        Negative values mean *fast, leaky* silicon; positive values mean
        *slow, low-leakage* silicon.
    speed_factor:
        Multiplier on achievable frequency at nominal voltage (1.0 nominal).
    leak_factor:
        Multiplier on reference leakage power (1.0 nominal).
    """

    vth_delta: float
    speed_factor: float
    leak_factor: float

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ConfigurationError("speed_factor must be positive")
        if self.leak_factor <= 0:
            raise ConfigurationError("leak_factor must be positive")

    @classmethod
    def nominal(cls) -> "SiliconProfile":
        """Return the exactly-nominal (typical-typical) profile."""
        return cls(vth_delta=0.0, speed_factor=1.0, leak_factor=1.0)

    @classmethod
    def from_vth_delta(cls, process: ProcessNode, vth_delta: float) -> "SiliconProfile":
        """Derive the full profile implied by a threshold-voltage shift.

        Speed scales linearly and leakage exponentially with ``-vth_delta``,
        the standard first-order behaviour (Borkar et al. [2]).
        """
        speed = 1.0 - process.speed_per_vth * vth_delta
        if speed <= 0:
            raise ConfigurationError(
                f"vth_delta={vth_delta} implies non-positive speed for {process.name}"
            )
        leak = math.exp(-process.leak_vth_slope * vth_delta)
        return cls(vth_delta=vth_delta, speed_factor=speed, leak_factor=leak)
