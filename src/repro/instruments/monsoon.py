"""Monsoon power monitor model.

The Monsoon replaces the phone's battery: it supplies a configured voltage
on the main channel and meters the energy the device draws.  Powering the
device this way removes battery state as a variance source (Section III) —
and, on the LG G5, *created* the paper's Figure 10 anomaly, because the OS
throttles on input voltage and the battery's printed nominal 3.85 V is far
below a healthy cell's working voltage.

Energy here is the trapezoid-free exact integral of ``P = V·I`` over engine
steps (the simulated current is piecewise constant per step, so the sum is
exact, not an approximation).
"""

from __future__ import annotations

from repro.errors import InstrumentError

#: Main channel output range of the real instrument, volts.
MIN_OUTPUT_V = 2.01
MAX_OUTPUT_V = 4.55


class MonsoonPowerMonitor:
    """A Monsoon main channel: voltage source + energy meter."""

    def __init__(self, output_voltage_v: float) -> None:
        self._voltage = 0.0
        self.set_voltage(output_voltage_v)
        self._energy_total_j = 0.0

    # -- supply interface (what the device sees) ------------------------

    @property
    def output_voltage_v(self) -> float:
        """Voltage presented on the main channel, volts."""
        return self._voltage

    def draw(self, power_w: float, dt: float) -> float:
        """Account for the device drawing ``power_w`` for ``dt`` seconds.

        Returns the sampled current in amperes.
        """
        if power_w < 0:
            raise InstrumentError("drawn power must be non-negative")
        if dt <= 0:
            raise InstrumentError("dt must be positive")
        self._energy_total_j += power_w * dt
        return power_w / self._voltage

    @property
    def energy_drawn_j(self) -> float:
        """Total energy delivered since construction (never reset), joules.

        This is the metering interface shared with
        :class:`~repro.device.battery.Battery`: the protocol meters a
        window as the difference of two readings.
        """
        return self._energy_total_j

    # -- operator interface (what the experimenter uses) ----------------

    def set_voltage(self, output_voltage_v: float) -> None:
        """Configure the main-channel voltage (instrument hard limits apply)."""
        if not MIN_OUTPUT_V <= output_voltage_v <= MAX_OUTPUT_V:
            raise InstrumentError(
                f"output voltage {output_voltage_v} V outside the instrument's "
                f"[{MIN_OUTPUT_V}, {MAX_OUTPUT_V}] V range"
            )
        self._voltage = output_voltage_v
