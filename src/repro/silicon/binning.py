"""Voltage binning (paper Section II, Zolotov et al. [8]).

Desktop CPUs are *speed binned*: labelled by the top frequency they pass
timing at and sold at matching price points.  *Voltage binning* — what the
smartphone market uses — fixes the frequency ladder for every chip and
adjusts each bin's supply voltage instead: slow (low-leakage) silicon is
binned at higher voltage to reach the shared frequencies; fast (leaky)
silicon is binned at lower voltage to rein in its leakage.  The result
looks identical on a spec sheet but hides the energy and thermal
differences the paper quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.silicon.process import ProcessNode
from repro.silicon.transistor import SiliconProfile
from repro.silicon.vf_tables import VoltageFrequencyTable
from repro.units import v_to_mv

#: Bin voltages are quantized to this step, millivolts (kernel tables use
#: 5 mV granularity; see the paper's Table I).
VOLTAGE_QUANTUM_MV = 5.0


def required_voltage(
    process: ProcessNode, nominal_voltage_v: float, vth_delta: float
) -> float:
    """Supply voltage a die needs to hit nominal speed, volts.

    A die whose threshold voltage is ``vth_delta`` above nominal is slower
    and needs ``volt_per_vth · vth_delta`` extra volts to close timing at
    the nominal frequency; a fast die (negative delta) needs less.
    """
    voltage = nominal_voltage_v + process.volt_per_vth * vth_delta
    if voltage <= 0:
        raise ConfigurationError(
            f"vth_delta={vth_delta} drives required voltage non-positive"
        )
    return voltage


@dataclass(frozen=True)
class VoltageBinner:
    """Voltage binning for one SoC model.

    Bins partition the ±``span_sigma``·σ range of threshold-voltage shifts
    into ``bin_count`` equal slices, slowest first.  Each bin's voltage row
    is the voltage the slice's *slowest* die needs (so every die in the bin
    is stable), quantized to :data:`VOLTAGE_QUANTUM_MV`.

    Attributes
    ----------
    process:
        Manufacturing process of the SoC.
    frequencies_mhz:
        The shared frequency ladder all bins expose.
    nominal_voltages_v:
        Voltage a nominal die needs at each ladder frequency, volts.
    bin_count:
        Number of bins (the Nexus 5 kernel defines 7).
    span_sigma:
        Half-width of the binned V_th range in sigmas.
    compensation_floor / compensation_top:
        Fraction of the full ``volt_per_vth`` compensation applied at the
        lowest and highest frequency anchors, interpolated linearly in
        between.  Timing criticality grows with frequency, so shipped
        tables compress the per-bin spread at low frequency (the paper's
        Table I spans 50 mV at 300 MHz but 150 mV at 2265 MHz); defaults
        of 1.0 give uniform full compensation.
    """

    process: ProcessNode
    frequencies_mhz: Tuple[float, ...]
    nominal_voltages_v: Tuple[float, ...]
    bin_count: int = 7
    span_sigma: float = 2.5
    compensation_floor: float = 1.0
    compensation_top: float = 1.0

    def __post_init__(self) -> None:
        if self.bin_count < 1:
            raise ConfigurationError("bin_count must be at least 1")
        if self.span_sigma <= 0:
            raise ConfigurationError("span_sigma must be positive")
        if len(self.frequencies_mhz) != len(self.nominal_voltages_v):
            raise ConfigurationError(
                "frequencies and nominal voltages must have equal length"
            )
        if not 0.0 <= self.compensation_floor <= self.compensation_top:
            raise ConfigurationError(
                "compensation_floor must be within [0, compensation_top]"
            )
        if self.compensation_top <= 0.0:
            raise ConfigurationError("compensation_top must be positive")

    def _compensation_fraction(self, freq_mhz: float) -> float:
        """Fraction of full V_th compensation applied at a frequency."""
        low = self.frequencies_mhz[0]
        high = self.frequencies_mhz[-1]
        if high == low:
            return self.compensation_top
        frac = (freq_mhz - low) / (high - low)
        return self.compensation_floor + frac * (
            self.compensation_top - self.compensation_floor
        )

    def _bin_edges_vth(self) -> Tuple[float, ...]:
        """V_th-delta edges from slowest (+span) to fastest (−span)."""
        span = self.span_sigma * self.process.vth_sigma
        step = 2.0 * span / self.bin_count
        return tuple(span - i * step for i in range(self.bin_count + 1))

    def table(self) -> VoltageFrequencyTable:
        """Generate the per-bin voltage table this binner would publish."""
        edges = self._bin_edges_vth()
        rows = []
        for bin_index in range(self.bin_count):
            slowest_vth = edges[bin_index]
            row = []
            for freq, nominal_v in zip(self.frequencies_mhz, self.nominal_voltages_v):
                effective_vth = slowest_vth * self._compensation_fraction(freq)
                volts = required_voltage(self.process, nominal_v, effective_vth)
                quantized = (
                    round(v_to_mv(volts) / VOLTAGE_QUANTUM_MV) * VOLTAGE_QUANTUM_MV
                )
                row.append(quantized)
            rows.append(tuple(row))
        # Quantization can produce equal adjacent anchors; enforce the
        # non-decreasing-in-frequency invariant explicitly.
        monotonic_rows = []
        for row in rows:
            fixed = [row[0]]
            for voltage in row[1:]:
                fixed.append(max(voltage, fixed[-1]))
            monotonic_rows.append(tuple(fixed))
        return VoltageFrequencyTable(
            frequencies_mhz=self.frequencies_mhz,
            voltages_mv=tuple(monotonic_rows),
        )


def bin_slice_vth(
    process: ProcessNode,
    bin_count: int,
    bin_index: int,
    fraction: float = 0.5,
    span_sigma: float = 2.5,
) -> float:
    """The V_th shift at a fractional position inside one voltage bin.

    ``fraction`` = 0 is the bin's slowest edge, 1 its fastest edge, 0.5 the
    midpoint.  Bins partition ±``span_sigma``·σ, slowest (bin 0) first —
    the same slicing :class:`VoltageBinner` uses, exposed so fleet builders
    can place units at known positions within their bins.
    """
    if bin_count < 1:
        raise ConfigurationError("bin_count must be at least 1")
    if not 0 <= bin_index < bin_count:
        raise ConfigurationError(
            f"bin index {bin_index} out of range [0, {bin_count})"
        )
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("fraction must be within [0, 1]")
    span = span_sigma * process.vth_sigma
    step = 2.0 * span / bin_count
    slow_edge = span - bin_index * step
    return slow_edge - fraction * step


def assign_bin_index(
    process: ProcessNode,
    bin_count: int,
    profile: SiliconProfile,
    span_sigma: float = 2.5,
) -> int:
    """The voltage bin a die falls into (same slicing as ``bin_slice_vth``).

    Out-of-span dies clamp to the end bins, as real binning flows do.
    """
    if bin_count < 1:
        raise ConfigurationError("bin_count must be at least 1")
    span = span_sigma * process.vth_sigma
    step = 2.0 * span / bin_count
    for bin_index in range(bin_count):
        fast_edge = span - (bin_index + 1) * step
        if profile.vth_delta > fast_edge:
            return bin_index
    return bin_count - 1


def bin_profile(
    process: ProcessNode,
    bin_count: int,
    bin_index: int,
    fraction: float = 0.5,
    span_sigma: float = 2.5,
) -> SiliconProfile:
    """A die at a fractional position inside one voltage bin."""
    vth = bin_slice_vth(process, bin_count, bin_index, fraction, span_sigma)
    return SiliconProfile.from_vth_delta(process, vth)
