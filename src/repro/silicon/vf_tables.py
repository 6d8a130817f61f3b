"""Voltage/frequency tables, including the paper's Table I.

Voltage binning gives every bin the *same* frequency ladder but different
supply voltages.  :class:`VoltageFrequencyTable` stores one ladder with one
voltage row per bin and interpolates voltages for frequencies between the
published anchor points (kernel tables list more frequency steps than the
paper's Table I excerpt).

:data:`NEXUS5_VF_TABLE_MV` reproduces Table I of the paper verbatim — the
Nexus 5 (SD-800) voltages, in millivolts, extracted from kernel sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ConfigurationError
from repro.units import mv_to_v

#: Frequency anchors of Table I, MHz.
NEXUS5_VF_FREQUENCIES_MHZ: Tuple[float, ...] = (300.0, 729.0, 960.0, 1574.0, 2265.0)

#: Table I of the paper: per-bin voltage (mV) at each frequency anchor.
#: Bin-0 has the slowest transistors (binned at the highest voltage);
#: bin-6 the fastest and leakiest (binned at the lowest voltage).
NEXUS5_VF_TABLE_MV: Tuple[Tuple[float, ...], ...] = (
    (800.0, 835.0, 865.0, 965.0, 1100.0),  # bin-0
    (800.0, 820.0, 850.0, 945.0, 1075.0),  # bin-1
    (775.0, 805.0, 835.0, 925.0, 1050.0),  # bin-2
    (775.0, 790.0, 820.0, 910.0, 1025.0),  # bin-3
    (775.0, 780.0, 810.0, 895.0, 1000.0),  # bin-4
    (750.0, 770.0, 800.0, 880.0, 975.0),  # bin-5
    (750.0, 760.0, 790.0, 870.0, 950.0),  # bin-6
)

#: Number of voltage bins the Nexus 5 kernel defines.
NEXUS5_BIN_COUNT = len(NEXUS5_VF_TABLE_MV)


@dataclass(frozen=True)
class VoltageFrequencyTable:
    """A binned voltage/frequency table.

    Attributes
    ----------
    frequencies_mhz:
        Frequency anchors, strictly increasing, MHz.
    voltages_mv:
        One row per bin; ``voltages_mv[bin][i]`` is the supply voltage in
        millivolts at ``frequencies_mhz[i]``.  Within a row, voltage is
        non-decreasing with frequency; at a fixed frequency, voltage is
        non-increasing with bin index (faster silicon needs less voltage).
    """

    frequencies_mhz: Tuple[float, ...]
    voltages_mv: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.frequencies_mhz) < 2:
            raise ConfigurationError("a table needs at least two frequency anchors")
        if any(
            later <= earlier
            for earlier, later in zip(self.frequencies_mhz, self.frequencies_mhz[1:])
        ):
            raise ConfigurationError("frequencies must be strictly increasing")
        if not self.voltages_mv:
            raise ConfigurationError("a table needs at least one bin row")
        for bin_index, row in enumerate(self.voltages_mv):
            if len(row) != len(self.frequencies_mhz):
                raise ConfigurationError(
                    f"bin {bin_index} row length {len(row)} does not match "
                    f"{len(self.frequencies_mhz)} frequency anchors"
                )
            if any(later < earlier for earlier, later in zip(row, row[1:])):
                raise ConfigurationError(
                    f"bin {bin_index} voltages must be non-decreasing with frequency"
                )
        for earlier_row, later_row in zip(self.voltages_mv, self.voltages_mv[1:]):
            if any(later > earlier for earlier, later in zip(earlier_row, later_row)):
                raise ConfigurationError(
                    "voltage must be non-increasing with bin index at each frequency"
                )

    @property
    def bin_count(self) -> int:
        """Number of bins in the table."""
        return len(self.voltages_mv)

    def voltage_mv(self, bin_index: int, freq_mhz: float) -> float:
        """Supply voltage in millivolts for a bin at a frequency.

        Frequencies between anchors are linearly interpolated; frequencies
        outside the ladder clamp to the nearest anchor (kernels never run
        outside their table, but callers probing the model may).
        """
        if not 0 <= bin_index < self.bin_count:
            raise ConfigurationError(
                f"bin_index {bin_index} out of range [0, {self.bin_count})"
            )
        freqs = self.frequencies_mhz
        row = self.voltages_mv[bin_index]
        if freq_mhz <= freqs[0]:
            return row[0]
        if freq_mhz >= freqs[-1]:
            return row[-1]
        for i in range(len(freqs) - 1):
            if freqs[i] <= freq_mhz <= freqs[i + 1]:
                span = freqs[i + 1] - freqs[i]
                frac = (freq_mhz - freqs[i]) / span
                return row[i] + frac * (row[i + 1] - row[i])
        raise ConfigurationError(f"frequency {freq_mhz} not bracketed")  # unreachable

    def voltage_v(self, bin_index: int, freq_mhz: float) -> float:
        """Supply voltage in volts (convenience wrapper)."""
        return mv_to_v(self.voltage_mv(bin_index, freq_mhz))

    def row_mv(self, bin_index: int) -> Tuple[float, ...]:
        """The full anchor-voltage row of one bin, millivolts."""
        if not 0 <= bin_index < self.bin_count:
            raise ConfigurationError(
                f"bin_index {bin_index} out of range [0, {self.bin_count})"
            )
        return self.voltages_mv[bin_index]


def nexus5_table() -> VoltageFrequencyTable:
    """The paper's Table I as a :class:`VoltageFrequencyTable`."""
    return VoltageFrequencyTable(
        frequencies_mhz=NEXUS5_VF_FREQUENCIES_MHZ,
        voltages_mv=NEXUS5_VF_TABLE_MV,
    )


def single_bin_table(
    frequencies_mhz: Sequence[float], voltages_mv: Sequence[float]
) -> VoltageFrequencyTable:
    """Build a one-bin table (for SoCs that hide their binning)."""
    return VoltageFrequencyTable(
        frequencies_mhz=tuple(frequencies_mhz),
        voltages_mv=(tuple(voltages_mv),),
    )
