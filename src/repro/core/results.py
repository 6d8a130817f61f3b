"""Result containers for ACCUBENCH runs.

The hierarchy mirrors the study design: an *iteration* is one pass through
the protocol, a *device result* aggregates ≥5 iterations on one unit, an
*experiment result* collects all units of one model under one workload —
the thing each of the paper's per-SoC figures (6–9) plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.analysis import (
    energy_variation,
    performance_variation,
    relative_standard_deviation,
)
from repro.errors import AnalysisError
from repro.sim.trace import Trace


@dataclass(frozen=True)
class IterationResult:
    """One pass through the ACCUBENCH protocol on one unit.

    Attributes
    ----------
    model / serial:
        Which unit produced this iteration.
    workload:
        Experiment name (``"UNCONSTRAINED"`` or ``"FIXED-FREQUENCY"``).
    iterations_completed:
        π-workload iterations finished in the workload phase (the paper's
        performance score).
    energy_j:
        Supply energy over the workload phase, joules.
    mean_power_w:
        Mean supply power over the workload phase, watts.
    mean_freq_mhz:
        Mean big-cluster frequency over the workload phase, MHz.
    max_cpu_temp_c:
        Peak die temperature over the whole protocol, °C.
    cooldown_s:
        How long the cooldown phase took, seconds.
    time_throttled_s:
        Workload time spent with a throttle cap in force, seconds.
    trace:
        Full protocol trace, if the config kept it.
    """

    model: str
    serial: str
    workload: str
    iterations_completed: float
    energy_j: float
    mean_power_w: float
    mean_freq_mhz: float
    max_cpu_temp_c: float
    cooldown_s: float
    time_throttled_s: float
    trace: Optional[Trace] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class DeviceResult:
    """All iterations of one experiment on one unit."""

    model: str
    serial: str
    workload: str
    iterations: Tuple[IterationResult, ...]

    def __post_init__(self) -> None:
        if not self.iterations:
            raise AnalysisError("a device result needs at least one iteration")

    @property
    def performance(self) -> float:
        """Mean iterations completed across protocol iterations."""
        return _mean([it.iterations_completed for it in self.iterations])

    @property
    def performance_rsd(self) -> float:
        """Relative standard deviation of the performance score."""
        return relative_standard_deviation(
            [it.iterations_completed for it in self.iterations]
        )

    @property
    def energy_j(self) -> float:
        """Mean workload energy across protocol iterations, joules."""
        return _mean([it.energy_j for it in self.iterations])

    @property
    def mean_freq_mhz(self) -> float:
        """Mean of per-iteration mean frequencies, MHz."""
        return _mean([it.mean_freq_mhz for it in self.iterations])

    @property
    def efficiency_iters_per_kj(self) -> float:
        """Work per energy: iterations per kilojoule (Figure 13's metric)."""
        energy = self.energy_j
        if energy <= 0:
            raise AnalysisError("cannot compute efficiency of zero energy")
        return self.performance / (energy / 1000.0)


@dataclass(frozen=True)
class ExperimentResult:
    """One workload across a whole fleet of one model."""

    model: str
    workload: str
    devices: Tuple[DeviceResult, ...]

    def __post_init__(self) -> None:
        if not self.devices:
            raise AnalysisError("an experiment result needs at least one device")

    def by_serial(self, serial: str) -> DeviceResult:
        """Look up one unit's result."""
        for device in self.devices:
            if device.serial == serial:
                return device
        known = ", ".join(d.serial for d in self.devices)
        raise AnalysisError(f"no unit {serial!r} in results; units: {known}")

    @property
    def serials(self) -> Tuple[str, ...]:
        """Unit serials, result order."""
        return tuple(device.serial for device in self.devices)

    def performances(self) -> Dict[str, float]:
        """Per-unit performance scores."""
        return {d.serial: d.performance for d in self.devices}

    def energies_j(self) -> Dict[str, float]:
        """Per-unit workload energies, joules."""
        return {d.serial: d.energy_j for d in self.devices}

    @property
    def performance_variation(self) -> float:
        """The paper's performance-spread metric: (max − min) / min."""
        return performance_variation([d.performance for d in self.devices])

    @property
    def energy_variation(self) -> float:
        """The paper's energy-spread metric: (max − min) / max."""
        return energy_variation([d.energy_j for d in self.devices])

    @property
    def best_serial(self) -> str:
        """Unit with the highest performance."""
        return max(self.devices, key=lambda d: d.performance).serial

    @property
    def worst_serial(self) -> str:
        """Unit with the lowest performance."""
        return min(self.devices, key=lambda d: d.performance).serial

    @property
    def most_efficient_serial(self) -> str:
        """Unit with the least workload energy."""
        return min(self.devices, key=lambda d: d.energy_j).serial

    @property
    def mean_performance_rsd(self) -> float:
        """Mean per-unit repeatability (the paper's error bars)."""
        return _mean([d.performance_rsd for d in self.devices])


def _mean(values: List[float]) -> float:
    if not values:
        raise AnalysisError("cannot average an empty sequence")
    return sum(values) / len(values)
