"""CPU clusters: specifications and runtime state.

A cluster is a set of identical cores sharing one clock and one voltage rail
— the DVFS granularity on every SoC in the study.  big.LITTLE SoCs
(SD-810) have two clusters; Kryo SoCs (SD-820/821) pair a performance and a
power cluster; Krait SoCs (SD-800/805) have a single quad cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.silicon.dynamic import DynamicPowerModel
from repro.silicon.leakage import LeakageModel, temperature_factor
from repro.silicon.process import ProcessNode
from repro.silicon.transistor import SiliconProfile
from repro.silicon.vf_tables import VoltageFrequencyTable
from repro.soc.core import CoreState
from repro.soc.perf import ops_rate
from repro.units import mhz_to_hz

#: Distinct ceilings whose nearest ladder rung one spec memoizes.
NEAREST_CACHE_SIZE = 64


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of one cluster.

    Attributes
    ----------
    name:
        Cluster name, e.g. ``"krait"``, ``"a57"``, ``"kryo-perf"``.
    core_count:
        Number of cores in the cluster.
    freq_table_mhz:
        The DVFS frequency ladder, strictly increasing, MHz.
    ipc:
        Work retired per cycle relative to the study's reference core
        (Krait at 1.0); drives the performance model.
    c_eff_f:
        Per-core effective switched capacitance, farads.
    leak_ref_w:
        Per-core nominal-die leakage at ``leak_ref_voltage_v`` and the
        leakage reference temperature, watts.
    leak_ref_voltage_v:
        Voltage at which ``leak_ref_w`` is specified, volts.
    vf_table:
        Binned voltage table for this cluster (one row per bin; a single
        row for SoCs that hide binning behind adaptive voltage).
    """

    name: str
    core_count: int
    freq_table_mhz: Tuple[float, ...]
    ipc: float
    c_eff_f: float
    leak_ref_w: float
    leak_ref_voltage_v: float
    vf_table: VoltageFrequencyTable
    _nearest: Dict[float, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.core_count < 1:
            raise ConfigurationError("core_count must be at least 1")
        if self.ipc <= 0:
            raise ConfigurationError("ipc must be positive")
        if not self.freq_table_mhz:
            raise ConfigurationError("freq_table_mhz must be non-empty")
        if any(
            later <= earlier
            for earlier, later in zip(self.freq_table_mhz, self.freq_table_mhz[1:])
        ):
            raise ConfigurationError("freq_table_mhz must be strictly increasing")

    @property
    def max_freq_mhz(self) -> float:
        """Top ladder frequency, MHz."""
        return self.freq_table_mhz[-1]

    @property
    def min_freq_mhz(self) -> float:
        """Bottom ladder frequency, MHz."""
        return self.freq_table_mhz[0]

    def freq_index(self, freq_mhz: float) -> int:
        """Index of an exact ladder frequency."""
        try:
            return self.freq_table_mhz.index(freq_mhz)
        except ValueError:
            raise ConfigurationError(
                f"{freq_mhz} MHz is not in cluster {self.name!r}'s ladder"
            ) from None

    def nearest_freq_mhz(self, freq_mhz: float) -> float:
        """The highest ladder frequency not above ``freq_mhz`` (or the bottom)."""
        # Called every governor poll with one of a handful of ceilings
        # (ladder rungs, pins, the input-voltage cap).  The ladder is
        # immutable, so the walk runs once per ceiling.
        nearest = self._nearest.get(freq_mhz)
        if nearest is None:
            if len(self._nearest) >= NEAREST_CACHE_SIZE:
                self._nearest.clear()
            nearest = self.freq_table_mhz[0]
            for candidate in self.freq_table_mhz:
                if candidate > freq_mhz:
                    break
                nearest = candidate
            self._nearest[freq_mhz] = nearest
        return nearest


class ClusterState:
    """Mutable runtime state of one cluster on one physical die."""

    def __init__(
        self,
        spec: ClusterSpec,
        process: ProcessNode,
        profile: SiliconProfile,
        bin_index: int = 0,
    ) -> None:
        if not 0 <= bin_index < spec.vf_table.bin_count:
            raise ConfigurationError(
                f"bin_index {bin_index} out of range for cluster {spec.name!r}"
            )
        self.spec = spec
        self.profile = profile
        self.bin_index = bin_index
        self.cores: List[CoreState] = [
            CoreState(index=i) for i in range(spec.core_count)
        ]
        self.freq_mhz: float = spec.min_freq_mhz
        #: Fraction of per-iteration time spent in frequency-independent
        #: memory stalls, measured at the cluster's top frequency.  The
        #: paper's π workload is fully CPU-bound (0.0); raising this models
        #: memory-bound work whose speed no longer tracks the clock.
        self.memory_boundedness: float = 0.0
        #: Extra voltage relative to the table, volts.  RBCPR rewrites it
        #: every step; binned parts keep the 0.0 that ``Soc.reset`` sets.
        self.voltage_adjust_v: float = 0.0
        self._dynamic = DynamicPowerModel(c_eff_f=spec.c_eff_f)
        self._leakage = LeakageModel(
            process=process,
            leak_ref_w=spec.leak_ref_w,
            ref_voltage=spec.leak_ref_voltage_v,
        )
        # Table voltage per ladder frequency, filled lazily (the table scan
        # would otherwise run every power computation).
        self._table_voltage_cache: dict = {}
        self._online = spec.core_count
        # One core's retire rate at the (clock, memory boundedness) it was
        # last computed for; both change only on a DVFS or workload change.
        self._rate_key: Tuple[float, float] = (-1.0, -1.0)
        self._rate_per_core = 0.0
        # The voltage-independent half of the power terms (see
        # ``power_terms``), rebuilt after any of its inputs changes
        # (``None`` = stale).
        self._point: Optional[Tuple[float, float, Tuple[float, ...]]] = None
        #: Called after the clock, the online count, the utilization or the
        #: memory boundedness changes, so an owner can rebuild what it
        #: derives from them (see ``Soc``).
        self.on_change: Optional[Callable[[], None]] = None

    @property
    def online_count(self) -> int:
        """Number of hotplugged-in cores."""
        return self._online

    def set_frequency(self, freq_mhz: float) -> None:
        """Set the shared cluster clock to an exact ladder frequency."""
        if freq_mhz == self.freq_mhz:
            return  # already validated when it was first set
        self.spec.freq_index(freq_mhz)  # validates membership
        self.freq_mhz = freq_mhz
        self._changed()

    def set_utilization(self, utilization: float) -> None:
        """Set every core's utilization (the π workload loads all cores)."""
        for core in self.cores:
            core.set_utilization(utilization)
        self._changed()

    def set_memory_boundedness(self, fraction: float) -> None:
        """Set the workload's memory-stall fraction (at top frequency)."""
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError("memory_boundedness must be within [0, 1)")
        self.memory_boundedness = fraction
        self._changed()

    def _cpu_time_share(self) -> float:
        """Fraction of busy time actually switching at the current clock.

        With stall time ``t_mem`` fixed (defined via the boundedness β at
        the top frequency) and CPU time scaling as 1/f, lower clocks spend
        proportionally more of each iteration computing.
        """
        beta = self.memory_boundedness
        if beta == 0.0:
            return 1.0
        # t_cpu ∝ 1/f; t_mem = β/(1−β) · t_cpu(f_max).
        cpu_time = 1.0 / self.freq_mhz
        mem_time = (beta / (1.0 - beta)) / self.spec.max_freq_mhz
        return cpu_time / (cpu_time + mem_time)

    def set_online_count(self, count: int) -> None:
        """Hotplug cores so exactly ``count`` are online (highest-index first
        to go offline, mirroring msm hotplug behaviour)."""
        if not 0 <= count <= self.spec.core_count:
            raise ConfigurationError(
                f"online count {count} out of range for {self.spec.name!r}"
            )
        if count == self._online:
            return
        for core in self.cores:
            core.online = core.index < count
        self._online = count
        self._changed()

    def _changed(self) -> None:
        self._point = None
        if self.on_change is not None:
            self.on_change()

    def voltage_v(self) -> float:
        """Current rail voltage: binned table voltage plus any adjustment."""
        voltage = self._table_voltage() + self.voltage_adjust_v
        if voltage <= 0:
            raise ConfigurationError("voltage adjustment drove rail non-positive")
        return voltage

    def _table_voltage(self) -> float:
        freq = self.freq_mhz
        table_v = self._table_voltage_cache.get(freq)
        if table_v is None:
            table_v = self.spec.vf_table.voltage_v(self.bin_index, freq)
            self._table_voltage_cache[freq] = table_v
        return table_v

    def power_w(self, die_temp_c: float) -> float:
        """Total cluster power at the current operating point, watts.

        Memory stalls don't switch the pipeline: the dynamic term scales
        by the CPU-time share of the running workload.
        """
        temp_factor = temperature_factor(self._leakage.process, die_temp_c)
        dynamic, leak, online = self.power_terms()
        return dynamic + leak * temp_factor * online

    def power_terms(self) -> Tuple[float, float, int]:
        """The power split around the die temperature.

        Returns ``(dynamic, leak, online)``: :meth:`power_w` is
        ``dynamic + leak * temp_factor * online``, where ``temp_factor`` is
        :func:`~repro.silicon.leakage.temperature_factor` at the die
        temperature and ``leak`` is one core's leakage before it
        (:meth:`~repro.silicon.leakage.LeakageModel.voltage_term`).  The
        table voltage, clock and per-core activities are rebuilt only
        after the clock, hotplug or load changes; each call re-evaluates
        only what the rail voltage (``voltage_adjust_v``) moves.
        """
        point = self._point
        if point is None:
            point = self._point = self._operating_point()
        table_v, hz, activities = point
        voltage = table_v + self.voltage_adjust_v
        if voltage <= 0:
            raise ConfigurationError("voltage adjustment drove rail non-positive")
        # Per-core dynamic power is `base * activity` with the base invariant
        # across cores; keep the per-core product and summation order of the
        # straightforward formulation so results stay bit-identical.
        base = self._dynamic.c_eff_f * voltage * voltage * hz
        dynamic = 0.0
        for activity in activities:
            dynamic += base * activity
        leak = self._leakage.voltage_term(self.profile, voltage)
        return dynamic, leak, len(activities)

    def _operating_point(self) -> Tuple[float, float, Tuple[float, ...]]:
        """Table voltage, clock in Hz and each online core's activity."""
        cpu_share = self._cpu_time_share()
        activities = tuple(
            core.utilization * cpu_share for core in self.cores if core.online
        )
        return self._table_voltage(), mhz_to_hz(self.freq_mhz), activities

    def leakage_w(self, die_temp_c: float) -> float:
        """Leakage-only power at the current operating point, watts."""
        voltage = self.voltage_v()
        return self._leakage.power(self.profile, voltage, die_temp_c) * self.online_count

    def ops_per_second(self) -> float:
        """Work retired per second across online cores, ops/s.

        For memory-bound work the retire rate is throughput-limited:
        1/(t_cpu(f) + t_mem), which approaches frequency-independence as
        the boundedness grows.
        """
        beta = self.memory_boundedness
        key = (self.freq_mhz, beta)
        if key != self._rate_key:
            per_core = ops_rate(self.freq_mhz, self.spec.ipc)
            if beta > 0.0:
                top_rate = ops_rate(self.spec.max_freq_mhz, self.spec.ipc)
                mem_time = (beta / (1.0 - beta)) / top_rate
                per_core = 1.0 / (1.0 / per_core + mem_time)
            self._rate_key, self._rate_per_core = key, per_core
        per_core = self._rate_per_core
        total = 0.0
        for core in self.cores:
            if core.online:
                total += per_core * core.utilization
        return total
