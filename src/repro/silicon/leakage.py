"""Leakage-power model.

Leakage (static) power is the villain of the paper: it varies exponentially
between dies, grows exponentially with temperature ("Moore's law meets static
power", Kim et al. [14]), and couples into a positive feedback loop — leaky
silicon heats up, heat raises leakage, the governor throttles, performance
drops (paper Section II, Figure 2).

The model here is the standard compact form

    P_leak(V, T) = P_ref · leak_factor · (V / V_ref)
                   · exp(a · (V − V_ref)) · exp(b · (T − T_ref))

with ``a`` and ``b`` taken from the :class:`~repro.silicon.process.ProcessNode`
and ``leak_factor`` from the die's :class:`~repro.silicon.transistor.SiliconProfile`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.silicon.process import ProcessNode
from repro.silicon.transistor import SiliconProfile

#: Reference temperature at which ``leak_ref_w`` is specified, °C.
LEAKAGE_REFERENCE_TEMP_C = 40.0


@dataclass(frozen=True)
class LeakageModel:
    """Leakage power of one CPU core (or any silicon block).

    Attributes
    ----------
    process:
        The manufacturing process, providing voltage/temperature slopes.
    leak_ref_w:
        Nominal-die leakage power in watts at ``ref_voltage`` volts and
        :data:`LEAKAGE_REFERENCE_TEMP_C`.
    ref_voltage:
        Voltage at which ``leak_ref_w`` is specified, volts.
    """

    process: ProcessNode
    leak_ref_w: float
    ref_voltage: float

    def __post_init__(self) -> None:
        if self.leak_ref_w < 0:
            raise ConfigurationError("leak_ref_w must be non-negative")
        if self.ref_voltage <= 0:
            raise ConfigurationError("ref_voltage must be positive")

    def power(self, profile: SiliconProfile, voltage: float, temp_c: float) -> float:
        """Leakage power in watts at the given supply voltage and die temperature.

        A powered-off block (``voltage == 0``) leaks nothing; power gating is
        modelled as removing the supply entirely.
        """
        return self.power_at(
            profile, voltage, temperature_factor(self.process, temp_c)
        )

    def power_at(
        self, profile: SiliconProfile, voltage: float, temp_factor: float
    ) -> float:
        """:meth:`power` with the temperature term already evaluated.

        ``temp_factor`` is :func:`temperature_factor` at the die
        temperature.  It depends only on the process and the temperature,
        so one evaluation serves every block of a die in a step.
        """
        return self.voltage_term(profile, voltage) * temp_factor

    def voltage_term(self, profile: SiliconProfile, voltage: float) -> float:
        """:meth:`power_at` before the temperature factor is applied, watts.

        This is ``P_ref · leak_factor · (V / V_ref) · exp(a · (V − V_ref))``,
        evaluated left to right.  Multiplying the result by the factor
        gives :meth:`power_at` bit for bit, so a caller whose voltage holds
        can keep this term and re-apply only the temperature factor.
        """
        if voltage < 0:
            raise ConfigurationError("voltage must be non-negative")
        if voltage == 0.0:
            return 0.0
        volt_term = (voltage / self.ref_voltage) * math.exp(
            self.process.leak_volt_slope * (voltage - self.ref_voltage)
        )
        return self.leak_ref_w * profile.leak_factor * volt_term

    def doubling_temperature_delta(self) -> float:
        """Temperature rise (°C) over which leakage doubles at fixed voltage."""
        return math.log(2.0) / self.process.leak_temp_slope


def temperature_factor(process: ProcessNode, temp_c: float) -> float:
    """The leakage temperature term ``exp(b · (T − T_ref))`` at ``temp_c``."""
    return math.exp(process.leak_temp_slope * (temp_c - LEAKAGE_REFERENCE_TEMP_C))
