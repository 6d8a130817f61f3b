"""Rapid-Bridge Core Power Reduction (RBCPR) adaptive voltage.

From SD-810 onward the studied SoCs carry a CPR hardware block [16, 17]
that closes a feedback loop around on-die ring-oscillator sensors: instead
of a static per-bin voltage table, each chip converges to the voltage *its
own silicon* needs at the current temperature.  That is why the paper found
no extractable voltage tables on the Nexus 6P, LG G5 or Pixel, and why all
Nexus 6P units report "speed-bin 0".

The model: the chip's required voltage is the nominal table value corrected
for its threshold-voltage shift (slow dies up, fast dies down), plus a
safety margin that CPR shaves as temperature rises (timing slack grows with
leakier/hotter transistors up to the inversion point; we model the shipped
behaviour: a linear recovery, floored).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.silicon.process import ProcessNode
from repro.silicon.transistor import SiliconProfile
from repro.units import mv_to_v


@dataclass(frozen=True)
class RbcprBlock:
    """Closed-loop voltage adjustment for one cluster rail.

    Attributes
    ----------
    process:
        The manufacturing process (provides volts-per-V_th compensation).
    compensation_factor:
        Fraction of the die's ideal V_th compensation the loop actually
        applies.  Shipped CPR fuses are conservative: fast silicon is not
        given the full voltage reduction its timing slack would allow
        (voltage floors, aging guard-bands), which is why leaky chips
        still run hotter — the effect the paper measures.
    base_margin_mv:
        Safety margin applied at ``reference_temp_c``, millivolts.
    margin_recovery_mv_per_c:
        Margin shaved per °C above the reference temperature.
    min_margin_mv:
        Floor the margin never drops below.
    reference_temp_c:
        Temperature at which the base margin applies.
    """

    process: ProcessNode
    compensation_factor: float = 0.55
    base_margin_mv: float = 50.0
    margin_recovery_mv_per_c: float = 0.35
    min_margin_mv: float = 10.0
    reference_temp_c: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.compensation_factor <= 1.0:
            raise ConfigurationError("compensation_factor must be within [0, 1]")
        if self.base_margin_mv < 0:
            raise ConfigurationError("base_margin_mv must be non-negative")
        if self.min_margin_mv < 0:
            raise ConfigurationError("min_margin_mv must be non-negative")
        if self.min_margin_mv > self.base_margin_mv:
            raise ConfigurationError("min_margin_mv cannot exceed base_margin_mv")
        if self.margin_recovery_mv_per_c < 0:
            raise ConfigurationError("margin_recovery_mv_per_c must be non-negative")

    def margin_mv(self, die_temp_c: float) -> float:
        """Current safety margin, millivolts."""
        recovered = self.margin_recovery_mv_per_c * max(
            0.0, die_temp_c - self.reference_temp_c
        )
        return max(self.min_margin_mv, self.base_margin_mv - recovered)

    def compensation_v(self, profile: SiliconProfile) -> float:
        """The die's V_th compensation, volts: constant for one chip.

        Positive for slow silicon (needs more volts to close timing),
        negative for fast silicon.
        """
        return self.compensation_factor * self.process.volt_per_vth * profile.vth_delta

    def voltage_adjust_v(self, compensation_v: float, die_temp_c: float) -> float:
        """Adjustment added to the nominal table voltage, volts: the die's
        :meth:`compensation_v` plus the temperature-dependent margin."""
        return compensation_v + mv_to_v(self.margin_mv(die_temp_c))
