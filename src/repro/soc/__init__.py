"""SoC (CPU subsystem) models.

Implements the CPU side of the five Qualcomm generations the paper studies:
frequency ladders, cluster topologies (including big.LITTLE), DVFS governors,
thermal-throttling policies (stepwise capping, core shutdown at hard limits),
and the RBCPR adaptive-voltage block of SD-810-era parts.
"""

from repro.soc.catalog import (
    SOC_NAMES,
    SocSpec,
    VoltageMode,
    sd800,
    sd805,
    sd810,
    sd820,
    sd821,
    soc_by_name,
)
from repro.soc.cluster import ClusterSpec, ClusterState
from repro.soc.core import CoreState
from repro.soc.dvfs import (
    Governor,
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    UserspaceGovernor,
)
from repro.soc.instance import Soc
from repro.soc.perf import PI_ITERATION_OPS, iterations_from_ops, ops_rate
from repro.soc.rbcpr import RbcprBlock
from repro.soc.throttling import (
    CoreShutdownPolicy,
    MitigationState,
    StepwiseThrottle,
    ThrottlePolicy,
)

__all__ = [
    "ClusterSpec",
    "ClusterState",
    "CoreShutdownPolicy",
    "CoreState",
    "Governor",
    "InteractiveGovernor",
    "MitigationState",
    "OndemandGovernor",
    "PI_ITERATION_OPS",
    "PerformanceGovernor",
    "RbcprBlock",
    "SOC_NAMES",
    "Soc",
    "SocSpec",
    "StepwiseThrottle",
    "ThrottlePolicy",
    "UserspaceGovernor",
    "VoltageMode",
    "iterations_from_ops",
    "ops_rate",
    "sd800",
    "sd805",
    "sd810",
    "sd820",
    "sd821",
    "soc_by_name",
]
