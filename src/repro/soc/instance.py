"""A running SoC: one physical die's CPU subsystem.

:class:`Soc` binds a :class:`~repro.soc.catalog.SocSpec` to one sampled
:class:`~repro.silicon.transistor.SiliconProfile` and evolves the runtime
state — governor decisions, thermal mitigation, RBCPR voltage — one
simulation step at a time.  The paper's causal chain lives here:

    silicon profile → leakage → die temperature → mitigation → frequency
    → performance (and, integrated over time, energy).
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.silicon.leakage import temperature_factor
from repro.silicon.transistor import SiliconProfile
from repro.soc.catalog import SocSpec, VoltageMode
from repro.soc.cluster import ClusterState
from repro.soc.dvfs import Governor, PerformanceGovernor, UserspaceGovernor
from repro.soc.rbcpr import RbcprBlock
from repro.soc.throttling import MitigationState, ThrottlePolicy

#: Governors whose choice is a pure function of the ladder, the load and
#: the ceiling.  Only these may be skipped on a step that changes none of
#: those; the others keep per-call state (an internal clock).
_STATELESS_GOVERNORS = (PerformanceGovernor, UserspaceGovernor)


class Soc:
    """Runtime state of one SoC instance (one physical chip)."""

    def __init__(
        self,
        spec: SocSpec,
        profile: SiliconProfile,
        throttle: ThrottlePolicy,
        bin_index: int = 0,
        rbcpr: Optional[RbcprBlock] = None,
    ) -> None:
        if spec.voltage_mode is VoltageMode.ADAPTIVE and rbcpr is None:
            rbcpr = RbcprBlock(process=spec.process)
        if spec.voltage_mode is VoltageMode.BINNED and rbcpr is not None:
            raise ConfigurationError("binned-voltage SoCs have no RBCPR block")
        effective_bin = bin_index if spec.voltage_mode is VoltageMode.BINNED else 0
        self.spec = spec
        self.profile = profile
        self.bin_index = effective_bin
        self.throttle = throttle
        self.rbcpr = rbcpr
        # RBCPR's V_th compensation depends only on this die, so it is
        # computed once; each step adds only the temperature margin.
        self._rbcpr_comp = (
            rbcpr.compensation_v(profile) if rbcpr is not None else 0.0
        )
        self.clusters: Tuple[ClusterState, ...] = tuple(
            ClusterState(cluster_spec, spec.process, profile, effective_bin)
            for cluster_spec in spec.clusters
        )
        self._governors: Dict[str, Governor] = {
            cluster.spec.name: PerformanceGovernor() for cluster in self.clusters
        }
        self.mitigation = MitigationState()
        #: Ceiling imposed from outside the thermal stack (the LG G5's
        #: input-voltage throttle, paper Figure 10), MHz; ``None`` = none.
        self.external_ceiling_mhz: Optional[float] = None
        #: Extra ladder steps shaved off the ceiling by device-level
        #: policies that watch other sensors (skin-temperature throttles).
        self.external_ceiling_steps: int = 0
        # What the per-step report reads, rebuilt only after a cluster's
        # clock or hotplug state changes (``None`` = stale).
        self._frequencies: Optional[Dict[str, float]] = None
        self._online_cores: Optional[int] = None
        # What the last full step left for replay (see ``step``), or
        # ``None`` when an input has changed since.
        self._replay: Optional[tuple] = None
        self._stateless_governors = True
        for cluster in self.clusters:
            cluster.on_change = self._cluster_changed

    def set_governor(self, governor: Governor, cluster: Optional[str] = None) -> None:
        """Install a governor on one cluster or (default) all clusters.

        A stateful governor keeps a clock on its cluster's ladder, so on a
        multi-cluster SoC the first cluster gets ``governor`` and every
        further one its own copy of it; stateless governors are shared.
        """
        if cluster is not None and cluster not in self._governors:
            known = ", ".join(self._governors)
            raise ConfigurationError(f"unknown cluster {cluster!r}; known: {known}")
        # A pinning governor checks its pin against each ladder here, once,
        # instead of on every step.
        validate = getattr(governor, "validate", None)
        stateless = type(governor) in _STATELESS_GOVERNORS
        own = governor
        for state in self.clusters:
            spec = state.spec
            if cluster is None or spec.name == cluster:
                if validate is not None:
                    validate(spec)
                self._governors[spec.name] = own
                if not stateless:
                    own = copy.copy(governor)
        self._stateless_governors = all(
            type(installed) in _STATELESS_GOVERNORS
            for installed in self._governors.values()
        )
        self._replay = None

    def set_utilization(self, utilization: float) -> None:
        """Load (or idle) every core on every cluster."""
        for cluster in self.clusters:
            cluster.set_utilization(utilization)

    def set_memory_boundedness(self, fraction: float) -> None:
        """Set the running workload's memory-stall fraction on all clusters."""
        for cluster in self.clusters:
            cluster.set_memory_boundedness(fraction)

    def reset(self) -> None:
        """Return to a just-booted state (between experiment iterations the
        app does not reboot, so callers reset only at experiment start)."""
        self.throttle.reset()
        self.mitigation = MitigationState()
        for cluster in self.clusters:
            cluster.set_frequency(cluster.spec.min_freq_mhz)
            cluster.set_utilization(0.0)
            cluster.set_online_count(cluster.spec.core_count)
            cluster.voltage_adjust_v = 0.0

    def step(self, die_temp_c: float, now_s: float, dt: float) -> Tuple[float, float]:
        """Advance one simulation step.

        Runs the mitigation loop, lets governors pick frequencies under the
        mitigated ceiling, applies RBCPR voltage, and returns
        ``(power_w, ops_done)`` for the step.

        Clocks, hotplug state, table voltages, per-core activities and
        retire rates move only when the mitigation allowance, an external
        ceiling, a governor, the load or the memory boundedness changes.
        The mitigation policy hands back the same ``MitigationState``
        object while its allowance holds, and every other input
        invalidates the replay when it is set.  So a step that sees the
        allowance and both ceilings of the last full step replays that
        step's terms: it re-evaluates the leakage temperature factor and,
        on RBCPR parts, the voltage adjustment and what the rail voltage
        moves (``ClusterState.power_terms``), all in the full step's
        expression order, so the results are bit-identical.  Governors
        that keep per-call state (interactive, ondemand) always take the
        full step.
        """
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        mitigation = self.throttle.update(die_temp_c, now_s)
        self.mitigation = mitigation
        replay = self._replay
        if (
            replay is not None
            and replay[0] is mitigation
            and replay[1] == self.external_ceiling_steps
            and replay[2] == self.external_ceiling_mhz
        ):
            temp_factor = temperature_factor(self.spec.process, die_temp_c)
            power_w = 0.0
            if self.rbcpr is None:
                for dynamic, leak, online in replay[3]:
                    power_w += dynamic + leak * temp_factor * online
            else:
                adjust = self.rbcpr.voltage_adjust_v(self._rbcpr_comp, die_temp_c)
                for cluster in self.clusters:
                    cluster.voltage_adjust_v = adjust
                    dynamic, leak, online = cluster.power_terms()
                    power_w += dynamic + leak * temp_factor * online
            return power_w, replay[4] * dt

        total_steps = mitigation.ceiling_steps + self.external_ceiling_steps
        external_mhz = self.external_ceiling_mhz
        governors = self._governors
        # RBCPR's adjustment and the leakage temperature term depend only
        # on die temperature, silicon and process, so one evaluation of
        # each serves every cluster this step.
        adjust = (
            self.rbcpr.voltage_adjust_v(self._rbcpr_comp, die_temp_c)
            if self.rbcpr is not None
            else None
        )
        temp_factor = temperature_factor(self.spec.process, die_temp_c)
        for cluster in self.clusters:
            spec = cluster.spec
            ladder = spec.freq_table_mhz
            ceiling_index = len(ladder) - 1 - total_steps
            if ceiling_index < 0:
                ceiling_index = 0
            ceiling_mhz = ladder[ceiling_index]
            if external_mhz is not None and external_mhz < ceiling_mhz:
                ceiling_mhz = external_mhz
            cores = cluster.cores
            total_util = 0.0
            for core in cores:
                total_util += core.utilization
            cluster.set_frequency(
                governors[spec.name].target_frequency(
                    spec, total_util / len(cores), ceiling_mhz
                )
            )
            if adjust is not None:
                cluster.voltage_adjust_v = adjust

        # Hard-limit hotplug applies to the big (first) cluster, matching
        # the Nexus 5 behaviour of dropping one Krait core at 80 °C.
        big = self.clusters[0]
        big.set_online_count(
            max(0, big.spec.core_count - mitigation.offline_cores)
        )

        power_w = 0.0
        ops_rate_total = 0.0
        terms = []
        for cluster in self.clusters:
            dynamic, leak, online = cluster.power_terms()
            power_w += dynamic + leak * temp_factor * online
            ops_rate_total += cluster.ops_per_second()
            terms.append((dynamic, leak, online))
        if self._stateless_governors:
            # Cluster changes above cleared the replay; keep this step's.
            self._replay = (
                mitigation,
                self.external_ceiling_steps,
                external_mhz,
                terms,
                ops_rate_total,
            )
        return power_w, ops_rate_total * dt

    def leakage_w(self, die_temp_c: float) -> float:
        """Leakage power at the current operating point, watts."""
        return sum(cluster.leakage_w(die_temp_c) for cluster in self.clusters)

    def frequencies_mhz(self) -> Dict[str, float]:
        """Current frequency per cluster, MHz.

        The same dict is returned until a cluster's clock changes (every
        step report carries it), so callers must not mutate it.
        """
        frequencies = self._frequencies
        if frequencies is None:
            frequencies = self._frequencies = {
                cluster.spec.name: cluster.freq_mhz for cluster in self.clusters
            }
        return frequencies

    def voltages_v(self) -> Dict[str, float]:
        """Current rail voltage per cluster, volts."""
        return {cluster.spec.name: cluster.voltage_v() for cluster in self.clusters}

    def online_cores(self) -> int:
        """Total online cores across clusters."""
        online = self._online_cores
        if online is None:
            online = self._online_cores = sum(
                cluster.online_count for cluster in self.clusters
            )
        return online

    def _cluster_changed(self) -> None:
        self._frequencies = None
        self._online_cores = None
        self._replay = None
