"""The five Qualcomm SoC generations of the study (paper Section IV).

Each builder returns a calibrated :class:`SocSpec`; :func:`soc_by_name`
builds each catalogued spec once per process and shares it, since a spec
is frozen.  Frequency ladders are
taken from the shipped kernels (abridged to the paper-relevant steps);
power coefficients are calibrated so the simulated fleets reproduce the
paper's variation magnitudes (DESIGN.md §5) — they are plausible for the
era's silicon but are not vendor datasheet values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import UnknownModelError
from repro.silicon.binning import VoltageBinner
from repro.silicon.process import (
    PROCESS_14NM_FINFET,
    PROCESS_20NM_PLANAR,
    PROCESS_28NM_LP,
    ProcessNode,
)
from repro.silicon.vf_tables import (
    VoltageFrequencyTable,
    nexus5_table,
    single_bin_table,
)
from repro.soc.cluster import ClusterSpec


class VoltageMode(enum.Enum):
    """How a SoC's rail voltage is determined.

    ``BINNED``: a static per-bin table burnt in at manufacturing
    (SD-800/805 — the paper's Table I era).

    ``ADAPTIVE``: the RBCPR closed loop finds each chip's own voltage at
    runtime (SD-810 onward; no extractable tables, every chip reports
    "speed-bin 0").
    """

    BINNED = "binned"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class SocSpec:
    """Static description of one SoC model.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"SD-800"``.
    process:
        Manufacturing process node.
    clusters:
        Cluster specs, big cluster first.
    voltage_mode:
        Binned static tables vs RBCPR adaptive voltage.
    year:
        First-device year (for generation-ordered reporting, Fig 13).
    """

    name: str
    process: ProcessNode
    clusters: Tuple[ClusterSpec, ...]
    voltage_mode: VoltageMode
    year: int

    @property
    def bin_count(self) -> int:
        """Bins exposed by the big cluster's voltage table."""
        return self.clusters[0].vf_table.bin_count

    @property
    def total_cores(self) -> int:
        """Total CPU cores across clusters."""
        return sum(cluster.core_count for cluster in self.clusters)


#: Krait 400 ladder (Nexus 5 kernel, abridged), MHz.
SD800_FREQS = (
    300.0, 422.0, 652.0, 729.0, 883.0, 960.0, 1036.0,
    1190.0, 1267.0, 1497.0, 1574.0, 1728.0, 1958.0, 2265.0,
)

#: Krait 450 ladder (Nexus 6 kernel, abridged), MHz.
SD805_FREQS = SD800_FREQS + (2457.0, 2649.0)


def _sd805_vf_table() -> VoltageFrequencyTable:
    """Generate a 7-bin table for the SD-805 with the voltage binner.

    The paper could not locate a published table for the Nexus 6
    (Section IV-A1); internally the part is still voltage binned, so we
    synthesize a table with the same structure as Table I.
    """
    anchors = (300.0, 960.0, 1574.0, 2265.0, 2649.0)
    nominal_v = (0.790, 0.860, 0.930, 1.000, 1.060)
    binner = VoltageBinner(
        process=PROCESS_28NM_LP,
        frequencies_mhz=anchors,
        nominal_voltages_v=nominal_v,
        bin_count=7,
    )
    return binner.table()


def sd800() -> SocSpec:
    """Snapdragon 800 (Nexus 5): 4× Krait 400 @ 2.27 GHz, 28 nm."""
    return SocSpec(
        name="SD-800",
        process=PROCESS_28NM_LP,
        clusters=(
            ClusterSpec(
                name="krait400",
                core_count=4,
                freq_table_mhz=SD800_FREQS,
                ipc=1.0,
                c_eff_f=0.30e-9,
                leak_ref_w=0.24,
                leak_ref_voltage_v=0.95,
                vf_table=nexus5_table(),
            ),
        ),
        voltage_mode=VoltageMode.BINNED,
        year=2013,
    )


def sd805() -> SocSpec:
    """Snapdragon 805 (Nexus 6): 4× Krait 450 @ 2.65 GHz, 28 nm.

    Clocked past the 28 nm sweet spot — the binned voltage at 2.65 GHz is
    high, which is why the paper finds the SD-805 *less efficient* than the
    SD-800 despite being faster (Figure 13).
    """
    return SocSpec(
        name="SD-805",
        process=PROCESS_28NM_LP,
        clusters=(
            ClusterSpec(
                name="krait450",
                core_count=4,
                freq_table_mhz=SD805_FREQS,
                ipc=1.0,
                c_eff_f=0.32e-9,
                leak_ref_w=0.26,
                leak_ref_voltage_v=0.95,
                vf_table=_sd805_vf_table(),
            ),
        ),
        voltage_mode=VoltageMode.BINNED,
        year=2014,
    )


def sd810() -> SocSpec:
    """Snapdragon 810 (Nexus 6P): 4× A57 + 4× A53 big.LITTLE, 20 nm.

    The last planar-process flagship, notorious for thermal throttling [18];
    RBCPR replaces static voltage tables from this generation on.
    """
    a57_freqs = (384.0, 633.0, 768.0, 960.0, 1248.0, 1440.0, 1632.0, 1824.0, 1958.0)
    a57_volts_mv = (800.0, 830.0, 850.0, 880.0, 920.0, 960.0, 1000.0, 1030.0, 1050.0)
    a53_freqs = (384.0, 600.0, 768.0, 960.0, 1248.0, 1440.0, 1555.0)
    a53_volts_mv = (750.0, 780.0, 810.0, 850.0, 890.0, 930.0, 950.0)
    return SocSpec(
        name="SD-810",
        process=PROCESS_20NM_PLANAR,
        clusters=(
            ClusterSpec(
                name="a57",
                core_count=4,
                freq_table_mhz=a57_freqs,
                ipc=1.15,
                c_eff_f=0.45e-9,
                leak_ref_w=0.16,
                leak_ref_voltage_v=0.95,
                vf_table=single_bin_table(a57_freqs, a57_volts_mv),
            ),
            ClusterSpec(
                name="a53",
                core_count=4,
                freq_table_mhz=a53_freqs,
                ipc=0.50,
                c_eff_f=0.12e-9,
                leak_ref_w=0.045,
                leak_ref_voltage_v=0.90,
                vf_table=single_bin_table(a53_freqs, a53_volts_mv),
            ),
        ),
        voltage_mode=VoltageMode.ADAPTIVE,
        year=2015,
    )


def _kryo_clusters(
    perf_c_eff: float,
    perf_leak: float,
    power_c_eff: float,
    power_leak: float,
) -> Tuple[ClusterSpec, ClusterSpec]:
    """Shared Kryo topology of the SD-820/821 (2+2 cores, 14 nm)."""
    perf_freqs = (307.0, 480.0, 691.0, 883.0, 1075.0, 1286.0, 1478.0,
                  1689.0, 1882.0, 2016.0, 2150.0)
    perf_volts_mv = (680.0, 700.0, 725.0, 750.0, 775.0, 805.0, 835.0,
                     870.0, 905.0, 935.0, 965.0)
    power_freqs = (307.0, 480.0, 691.0, 883.0, 1075.0, 1286.0, 1478.0, 1593.0)
    power_volts_mv = (680.0, 700.0, 725.0, 750.0, 775.0, 805.0, 835.0, 855.0)
    return (
        ClusterSpec(
            name="kryo-perf",
            core_count=2,
            freq_table_mhz=perf_freqs,
            ipc=1.25,
            c_eff_f=perf_c_eff,
            leak_ref_w=perf_leak,
            leak_ref_voltage_v=0.85,
            vf_table=single_bin_table(perf_freqs, perf_volts_mv),
        ),
        ClusterSpec(
            name="kryo-power",
            core_count=2,
            freq_table_mhz=power_freqs,
            ipc=1.25,
            c_eff_f=power_c_eff,
            leak_ref_w=power_leak,
            leak_ref_voltage_v=0.85,
            vf_table=single_bin_table(power_freqs, power_volts_mv),
        ),
    )


def sd820() -> SocSpec:
    """Snapdragon 820 (LG G5): 2+2 Kryo, 14 nm FinFET."""
    return SocSpec(
        name="SD-820",
        process=PROCESS_14NM_FINFET,
        clusters=_kryo_clusters(
            perf_c_eff=0.42e-9, perf_leak=0.180,
            power_c_eff=0.30e-9, power_leak=0.128,
        ),
        voltage_mode=VoltageMode.ADAPTIVE,
        year=2016,
    )


def sd821() -> SocSpec:
    """Snapdragon 821 (Google Pixel): a matured-process SD-820 respin."""
    return SocSpec(
        name="SD-821",
        process=PROCESS_14NM_FINFET,
        clusters=_kryo_clusters(
            perf_c_eff=0.40e-9, perf_leak=0.125,
            power_c_eff=0.28e-9, power_leak=0.090,
        ),
        voltage_mode=VoltageMode.ADAPTIVE,
        year=2016,
    )


_BUILDERS = {
    "SD-800": sd800,
    "SD-805": sd805,
    "SD-810": sd810,
    "SD-820": sd820,
    "SD-821": sd821,
}

#: Names of all catalogued SoCs, generation order.
SOC_NAMES: Tuple[str, ...] = tuple(_BUILDERS)


#: Catalogued specs built so far, by name (see soc_by_name).
_SPECS: Dict[str, SocSpec] = {}


def soc_by_name(name: str) -> SocSpec:
    """The catalogued SoC named ``name``.

    Specs are frozen, so each one is built on first use and then shared
    by every caller: a fleet of 128 units builds its SoC's ladders and
    voltage tables once, not 128 times.
    """
    spec = _SPECS.get(name)
    if spec is None:
        try:
            builder = _BUILDERS[name]
        except KeyError:
            raise UnknownModelError("SoC", name, SOC_NAMES) from None
        spec = _SPECS[name] = builder()
    return spec
