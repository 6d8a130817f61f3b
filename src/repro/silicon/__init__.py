"""Silicon process, transistor and binning models.

This subpackage implements the device physics the paper's observations rest
on: die-to-die process variation, voltage- and temperature-dependent leakage,
dynamic switching power, and the speed/voltage binning procedures
manufacturers use to paper over the variation (Section II of the paper).
"""

from repro.silicon.binning import (
    BinningOutcome,
    SpeedBinner,
    VoltageBinner,
    required_voltage,
    spread_profiles,
)
from repro.silicon.dynamic import DynamicPowerModel
from repro.silicon.leakage import LeakageModel
from repro.silicon.process import (
    PROCESS_14NM_FINFET,
    PROCESS_20NM_PLANAR,
    PROCESS_28NM_LP,
    ProcessNode,
    process_node,
)
from repro.silicon.transistor import SiliconProfile
from repro.silicon.variation import VariationSampler
from repro.silicon.vf_tables import (
    NEXUS5_BIN_COUNT,
    NEXUS5_VF_TABLE_MV,
    VoltageFrequencyTable,
    nexus5_table,
    single_bin_table,
)

__all__ = [
    "BinningOutcome",
    "DynamicPowerModel",
    "LeakageModel",
    "NEXUS5_BIN_COUNT",
    "NEXUS5_VF_TABLE_MV",
    "PROCESS_14NM_FINFET",
    "PROCESS_20NM_PLANAR",
    "PROCESS_28NM_LP",
    "ProcessNode",
    "SiliconProfile",
    "SpeedBinner",
    "VariationSampler",
    "VoltageBinner",
    "VoltageFrequencyTable",
    "nexus5_table",
    "process_node",
    "required_voltage",
    "single_bin_table",
    "spread_profiles",
]
