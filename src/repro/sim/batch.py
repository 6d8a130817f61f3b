"""Lock-step batched simulation of many device units, mixed models included.

A fleet experiment runs the *same* protocol over N units; the serial path
builds N worlds and steps them one after another, re-deriving identical
control flow N times per engine step.  :class:`BatchedWorld` instead
advances all units in lock-step through stacked state: units are grouped
by device model into cohort blocks (:class:`_CohortWorld`), and each
cohort shares one ``(N_model, nodes)`` temperature matrix propagated by a
single batched (Φ, Ψ) application per step — the block-diagonal form of
the fleet-wide update — plus vectorized per-unit power evaluation over
stacked silicon parameters and masked cohort updates for the places units
genuinely diverge (throttle polls, cooldown exits).  A homogeneous fleet
is the one-cohort special case and runs exactly the code it always has.

Fidelity contract
-----------------
The batched step mirrors the serial ``World.run_for`` / ``Device.step`` /
``Soc.step`` bodies operation for operation, per unit:

* every per-unit random draw (OS steal resample, background-noise sample,
  sensor read) comes from that unit's own generator in the same order the
  serial path would draw it — so stochastic trajectories are reproducible
  against the serial engine, not merely statistically similar.  Draws are
  read ahead a block per unit at a time
  (:class:`~repro.rng.NormalBlocks`), and
  :meth:`BatchedWorld.finalize` hands every generator back exactly where
  the serial path leaves it;
* device-local time is *accumulated* (``now += dt``) while clock time is
  *derived* (``steps * dt``), matching ``Device._now_s`` vs ``SimClock``
  exactly;
* throttle polls replay the serial catch-up ``while`` loop under a mask,
  so the burst of missed polls after a long cooldown lands identically.

The only tolerated deviations are ulp-level: the batched thermal update is
a GEMM where the serial path runs per-unit GEMVs, and per-core power sums
collapse behind BLAS summation order.  ``repro.check``'s ``BATCH_SPEC``
pairing budget covers exactly that.

Divergence handling
-------------------
Units stay in one cohort while they share control flow.  During cooldown,
units that reach their target temperature freeze (their clocks, chambers
and supplies stop advancing — a serial world that simply is not stepped)
while the still-cooling cohort fast-forwards whole poll windows; each
shrink of the active cohort is counted as a *cohort split* for the
observability layer.

Fixed cost per step
-------------------
At crowd widths (~128 units) a step's fixed numpy cost dominates, so
the checks that usually cannot act sit behind cheap scalar proofs that
they cannot fire: per-deadline poll slacks, a countdown to the next
decimated trace row, a running lower bound on the batteries' state of
charge and a peak-load deliverability bound.  None skips a check that
could act, so the bits are those of the unguarded step.  Node
temperatures and injected power live in node-major blocks, which the
propagator's node-major update reads and writes without gathers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.battery import Battery
from repro.device.phone import Device
from repro.errors import SimulationError
from repro.instruments.thermabox import BatchedThermabox
from repro.rng import NormalBlocks
from repro.sim.engine import TRACE_CHANNELS
from repro.sim.events import EventLog
from repro.sim.trace import PhaseSpan, Trace
from repro.soc.throttling import MitigationState

#: Starting per-unit row capacity of a cohort trace store (doubles as it
#: fills).
_TRACE_ROWS = 64

#: Relative headroom under the battery's worst-case deliverable power
#: below which the exact terminal-voltage solve is skipped.
_BATTERY_BOUND_MARGIN = 1e-6


class _ClusterBatch:
    """Stacked runtime state of one cluster across all units."""

    __slots__ = (
        "spec",
        "ladder",
        "core_count",
        "c_eff",
        "leak_vref",
        "leak_volt_slope",
        "leak_temp_slope",
        "leak_coeff",
        "volt_table",
        "freq",
        "voltage_adjust",
        "fixed_index",
        "external_index",
        "ipc",
        "max_freq",
        "top_rate",
    )

    def __init__(self, devices: Sequence[Device], cluster_index: int) -> None:
        reference = devices[0].soc.clusters[cluster_index]
        spec = reference.spec
        self.spec = spec
        self.ladder = np.asarray(spec.freq_table_mhz, dtype=float)
        self.core_count = spec.core_count
        self.ipc = spec.ipc
        self.c_eff = spec.c_eff_f
        self.max_freq = spec.max_freq_mhz
        # ops_rate(max_freq, ipc) — the memory-stall normalization rate.
        self.top_rate = spec.max_freq_mhz * 1e6 * spec.ipc
        self.leak_vref = spec.leak_ref_voltage_v
        process = devices[0].soc.spec.process
        self.leak_volt_slope = process.leak_volt_slope
        self.leak_temp_slope = process.leak_temp_slope
        # Serial leakage computes ``leak_ref_w * leak_factor`` first every
        # step; hoisting that product keeps the op order (and result) exact.
        self.leak_coeff = np.array(
            [spec.leak_ref_w * dev.profile.leak_factor for dev in devices]
        )
        # Per-unit binned table voltage for every ladder rung, volts; a
        # bin's row is interpolated once however many units share it.
        rows: "dict[int, list]" = {}
        for dev in devices:
            bin_index = dev.soc.clusters[cluster_index].bin_index
            if bin_index not in rows:
                rows[bin_index] = [
                    spec.vf_table.voltage_v(bin_index, f)
                    for f in spec.freq_table_mhz
                ]
        self.volt_table = np.array(
            [rows[dev.soc.clusters[cluster_index].bin_index] for dev in devices]
        )
        self.freq = np.array(
            [dev.soc.clusters[cluster_index].freq_mhz for dev in devices]
        )
        self.voltage_adjust = np.array(
            [dev.soc.clusters[cluster_index].voltage_adjust_v for dev in devices]
        )
        #: Userspace pin as a ladder index (the load-off minimum), a
        #: per-unit index array when any unit is pinned (an unpinned unit
        #: holds the top rung), or ``None`` for the performance governor.
        #: Resolving pins/ceilings to *indices* up front turns the hot
        #: loop's frequency choice into pure integer minima.
        self.fixed_index: Union[None, int, np.ndarray] = None
        #: Nearest-ladder index of the OS input-voltage cap, if any.
        self.external_index: Optional[int] = None

    def nearest_index(self, freq_mhz: float) -> int:
        """Ladder index of ``ClusterSpec.nearest_freq_mhz(freq_mhz)``."""
        index = int(np.searchsorted(self.ladder, freq_mhz, side="right")) - 1
        return max(index, 0)


class _CohortWorld:
    """One same-model cohort of device units advanced in lock-step.

    The single-model engine block behind :class:`BatchedWorld`, which
    groups a (possibly mixed-model) fleet into these cohorts.
    Construction adopts the units' current device state (fresh devices
    start pristine, exactly like the serial runner's); :meth:`finalize`
    writes the evolved state back into the :class:`Device` objects so
    anything inspecting them afterwards sees what a serial run would have
    left behind.  One instance persists across protocol iterations —
    :meth:`begin_iteration` plays the role of the serial path's fresh
    ``World`` per iteration (new traces, clock at zero, chamber retained).
    """

    def __init__(
        self,
        devices: Sequence[Device],
        room_temp_c: Union[float, np.ndarray],
        chamber=None,
        dt: float = 0.1,
        trace_decimation: int = 5,
        check_invariants: bool = False,
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        if not devices:
            raise SimulationError("a batched world needs at least one unit")
        if trace_decimation < 1:
            raise SimulationError("trace_decimation must be at least 1")
        spec_names = {dev.spec.name for dev in devices}
        if len(spec_names) != 1:
            raise SimulationError(
                f"batched units must share one device model, got {sorted(spec_names)}"
            )
        if chamber is not None and chamber.count != len(devices):
            raise SimulationError("chamber column count must match unit count")
        self.devices = list(devices)
        count = len(devices)
        self._count = count
        self._dt = dt
        self._decimation = trace_decimation
        room = np.asarray(room_temp_c, dtype=float)
        if room.ndim == 0:
            self._room_temp = float(room)
        else:
            # Per-unit room temperatures: every unit cools toward its own
            # uncontrolled ambient (the crowd-study setting).  A chamber
            # regulates all columns toward one exterior, so the two are
            # mutually exclusive.
            if room.shape != (count,):
                raise SimulationError(
                    "room_temp_c array must have one entry per unit"
                )
            if chamber is not None:
                raise SimulationError(
                    "per-unit room temperatures require chamber=None"
                )
            self._room_temp = float(room[0])
        self._chamber = chamber
        spec = devices[0].spec
        self._spec = spec

        reference = devices[0]
        thermal = reference.thermal
        if not thermal.is_exact or thermal.propagator is None:
            raise SimulationError("batched worlds require the expm thermal solver")
        self._propagator = thermal.propagator
        self._node_count = len(thermal.node_names)
        self._idx_ambient = thermal.node_index("ambient")
        self._idx_cpu, self._idx_case, self._idx_pkg = thermal.injection_indices(
            ("cpu", "case", "pkg")
        )
        # Node temperatures and injected power are (units, nodes) views of
        # node-major blocks: each node's column is one contiguous run, as
        # the per-node reads and writes and ExpmPropagator.advance_batch's
        # node-major update want it.
        self._temps = np.ascontiguousarray(
            [
                [dev.thermal.temperature_at(i) for dev in devices]
                for i in range(self._node_count)
            ]
        ).T
        self._power_buf = np.zeros((self._node_count, count)).T

        # -- per-unit device-persistent state --------------------------------
        self._now_dev = np.array([dev.now_s for dev in devices])
        stepwise = reference.soc.throttle.stepwise
        self._stw_interval = stepwise.poll_interval_s
        self._stw_hot = stepwise.throttle_temp_c
        self._stw_cold = stepwise.clear_temp_c
        self._stw_max = stepwise.max_steps
        self._stw_steps = np.array(
            [dev.soc.throttle.stepwise.steps for dev in devices], dtype=np.int64
        )
        self._stw_next = np.array(
            [dev.soc.throttle.stepwise._next_poll_s for dev in devices]
        )
        shutdown = reference.soc.throttle.shutdown
        self._has_shutdown = shutdown is not None
        if shutdown is not None:
            self._shd_interval = shutdown.poll_interval_s
            self._shd_hot = shutdown.critical_temp_c
            self._shd_cold = shutdown.restore_temp_c
            self._shd_max = shutdown.max_offline
            self._shd_offline = np.array(
                [dev.soc.throttle.shutdown.offline for dev in devices],
                dtype=np.int64,
            )
            self._shd_next = np.array(
                [dev.soc.throttle.shutdown._next_poll_s for dev in devices]
            )
        else:
            self._shd_offline = np.zeros(count, dtype=np.int64)
            self._shd_next = np.zeros(count)

        # Skin-temperature mitigation (slow surface-estimate polls): per-unit
        # step/next-poll state, constants shared cohort-wide from the spec.
        skin = reference.skin_throttle
        self._has_skin = skin is not None
        if skin is not None:
            self._skin_interval = skin.poll_interval_s
            self._skin_hot = skin.throttle_surface_c
            self._skin_cold = skin.clear_surface_c
            self._skin_max = skin.max_steps
            self._skin_contact = skin.skin_model.contact_resistance
            self._skin_steps = np.array(
                [dev.skin_throttle._steps for dev in devices], dtype=np.int64
            )
            self._skin_next = np.array(
                [dev.skin_throttle._next_poll_s for dev in devices]
            )
        else:
            self._skin_steps = np.zeros(count, dtype=np.int64)
            self._skin_next = np.zeros(count)

        os_ref = reference.os
        self._bg_power = os_ref.background_power_w
        self._bg_sigma = os_ref.background_sigma_w
        self._steal_mean = os_ref.steal_mean
        self._steal_sigma = os_ref.steal_sigma
        self._steal_max = os_ref.steal_max
        self._steal_interval = os_ref.steal_interval_s
        self._steal_frac = np.array([dev.os._steal_frac for dev in devices])
        self._steal_until = np.array([dev.os._steal_until_s for dev in devices])
        # The retired-work factor ``1 - steal``; it only moves when a
        # steal fraction is resampled.
        self._steal_keep = 1.0 - self._steal_frac
        # Steal resamples and background noise share each unit's OS stream,
        # and so its block cursor.  The serial OsBehavior draws nothing
        # when its terms are disabled; matching the gates keeps per-unit
        # RNG streams aligned draw-for-draw.
        for dev in devices:
            dev.os.hand_back()
        self._os_draws = NormalBlocks([dev.os.rng for dev in devices])
        self._steal_enabled = os_ref.rng is not None and not (
            self._steal_sigma == 0 and self._steal_mean == 0
        )
        self._noise_enabled = self._bg_sigma > 0 and os_ref.rng is not None

        # Scalar poll-skip bounds, one per sampled deadline: the smallest
        # per-unit slack ``min(next - now)`` left after the last exact
        # check, counted down by ``dt`` on every awake step (which advances
        # every unit's clock by ``dt``).  While a slack is clearly positive
        # no unit can be due, so quiet steps skip the fleet-wide
        # compare-and-any entirely; otherwise the exact vector check runs
        # and re-measures it, so replay is untouched.  A per-unit slack
        # keeps working once cooldown exits stagger the unit clocks, where
        # a max-clock-versus-min-deadline test never skips again.  Zero
        # means "must check" (see _must_check).
        self._stw_slack = 0.0
        self._shd_slack = 0.0
        self._skin_slack = 0.0
        self._steal_slack = 0.0
        self._any_offline = bool(self._shd_offline.any())

        sensor = reference.sensor
        self._sensor_quantum = sensor.quantization_c
        self._sensor_sigma = sensor.noise_sigma_c
        self._sensor_offset = sensor.offset_c
        self._sensor_draws = NormalBlocks([dev.sensor.rng for dev in devices])
        # Per-unit gate of the serial TemperatureSensor's noise term.
        self._sensor_noisy = np.array(
            [
                self._sensor_sigma > 0 and dev.sensor.rng is not None
                for dev in devices
            ]
        )
        self._all_noisy = bool(self._sensor_noisy.all())

        self._awake_idle = spec.rails.awake_idle_w
        self._asleep_w = spec.rails.asleep_w
        self._efficiency = spec.rails.regulator_efficiency

        batteries = [isinstance(dev.supply, Battery) for dev in devices]
        self._battery_mode = all(batteries)
        if any(batteries) and not self._battery_mode:
            raise SimulationError(
                "batched units must all be battery-powered or all metered"
            )
        self._energy_total = np.array(
            [dev.supply.energy_drawn_j for dev in devices]
        )
        if self._battery_mode:
            # Vectorized battery bank: stacked SoC / last-load state with
            # the serial Battery.draw arithmetic replayed element-wise.
            bat_specs = {dev.supply.spec for dev in devices}
            if len(bat_specs) != 1:
                raise SimulationError(
                    "batched batteries must share one BatterySpec"
                )
            bat_spec = bat_specs.pop()
            self._bat_capacity = bat_spec.energy_capacity_j
            self._bat_resistance = bat_spec.internal_resistance_ohm
            self._bat_curve_soc = np.array(
                [soc for soc, _ in bat_spec.ocv_curve]
            )
            self._bat_curve_v = np.array([v for _, v in bat_spec.ocv_curve])
            # Scalar deliverability bound.  The curve spans SoC 0..1, so
            # every unit's OCV is at least its lowest anchor, and a load
            # below min(OCV)² / 4R leaves a positive discriminant in the
            # terminal-voltage solve.  The relative margin dwarfs the
            # rounding of the interpolation and of the product, so a step
            # whose largest load is under the bound cannot fail the exact
            # check, which then need not run (see _battery_draw_awake).
            resistance = self._bat_resistance
            self._bat_safe_w = (
                float(self._bat_curve_v.min()) ** 2 / (4.0 * resistance)
                * (1.0 - _BATTERY_BOUND_MARGIN)
                if resistance > 0.0
                else np.inf
            )
            self._bat_soc = np.array(
                [dev.supply.state_of_charge for dev in devices]
            )
            # Running lower bound on every unit's state of charge (see
            # _battery_draw_awake): while it is positive no battery is
            # empty and the clamp at zero changes nothing.
            self._bat_floor = float(self._bat_soc.min())
            self._bat_last_load = np.array(
                [dev.supply._last_load_w for dev in devices]
            )
            self._voltage = None
            self._external_mhz = None
            throttle = reference.os.voltage_throttle
            self._vt_threshold = (
                throttle.threshold_v if throttle is not None else None
            )
            self._vt_ceiling = (
                throttle.ceiling_mhz if throttle is not None else None
            )
            self._capped = np.zeros(count, dtype=bool)
            self._elapsed = np.zeros(count)
            self._energy_win = np.zeros(count)
            self._charge = np.zeros(count)
            self._peak = np.zeros(count)
        else:
            voltages = {dev.supply.output_voltage_v for dev in devices}
            if len(voltages) != 1:
                raise SimulationError(
                    "batched units must share one supply voltage"
                )
            self._voltage = voltages.pop()
            self._external_mhz = reference.os.cpu_ceiling_mhz(self._voltage)
            self._vt_threshold = None
            self._vt_ceiling = None
            self._capped = np.zeros(count, dtype=bool)
            self._elapsed = np.array([dev.supply.elapsed_s for dev in devices])
            self._energy_win = np.array([dev.supply.energy_j for dev in devices])
            self._charge = np.array([dev.supply.charge_c for dev in devices])
            self._peak = np.array(
                [dev.supply.peak_current_a for dev in devices]
            )

        self._rbcpr = reference.soc.rbcpr
        if self._rbcpr is not None:
            self._rbcpr_comp = np.array(
                [self._rbcpr.compensation_v(dev.profile) for dev in devices]
            )
        self._clusters = [
            _ClusterBatch(devices, k) for k in range(len(reference.soc.clusters))
        ]
        if self._external_mhz is not None:
            for batch in self._clusters:
                batch.external_index = batch.nearest_index(self._external_mhz)
        elif self._vt_ceiling is not None:
            # Battery-powered units: the cap engages per unit, per step,
            # as each terminal voltage sags past the threshold; the ladder
            # index of the capped frequency is still a batch constant.
            for batch in self._clusters:
                batch.external_index = batch.nearest_index(self._vt_ceiling)
        self._online_big = np.array(
            [dev.soc.clusters[0].online_count for dev in devices], dtype=np.int64
        )
        self._online_big_full = np.full(
            count, self._clusters[0].core_count, dtype=np.int64
        )
        self._other_cores = sum(c.core_count for c in self._clusters[1:])
        # Governor-block replay cache (see _step_awake step 4), in two
        # halves.  The voltage-independent half — ladder rung, frequency,
        # table voltage, ``freq·1e6``, per-core activity, online masks and
        # retire rate — is a pure function of state that only moves when a
        # mitigation poll fires or a governor knob changes, so quiet steps
        # replay it.  The voltage-dependent half (``c_eff·V²·f`` and the
        # leakage voltage term) is replayed too on binned parts, whose
        # rail holds with the rung; on RBCPR parts, whose margin follows
        # the die temperature, it is recomputed every step from the cached
        # half.  A battery's sag against a voltage throttle moves the
        # ceiling itself every step, so those worlds never cache; a
        # battery without a voltage throttle feeds the governor nothing
        # but its steps.
        self._gov_cacheable = self._vt_threshold is None
        self._gov_cache: Optional[tuple] = None
        self._leak_temp_slope = reference.soc.spec.process.leak_temp_slope
        self._rows = np.arange(count)
        self._all_units = np.ones(count, dtype=bool)
        # Hot-loop scratch (one allocation per batch, reused every step).
        self._scr_noise = np.empty(count)
        # What every sleeping unit's trace row reads for supply and SoC
        # power (constants of the cohort).
        self._asleep_supply = np.full(count, self._asleep_w / self._efficiency)
        self._zeros = np.zeros(count)
        # Every unit's injected power while asleep (all at the package).
        self._asleep_power = np.zeros((self._node_count, count)).T
        self._asleep_power[:, self._idx_pkg] = self._asleep_supply
        if room.ndim == 0:
            self._room_ambient = np.full(count, self._room_temp)
        else:
            self._room_ambient = room.astype(float).copy()
        self._noise_const = np.full(count, max(0.0, self._bg_power))

        # -- batch-global benchmark-app state --------------------------------
        self._load_active = False
        self._wakelock = False
        self._utilization = 1.0
        betas = {
            cluster.memory_boundedness
            for dev in devices
            for cluster in dev.soc.clusters
        }
        if len(betas) != 1:
            raise SimulationError(
                "batched units must share one memory_boundedness"
            )
        self._mem_beta = betas.pop()
        #: Per-unit userspace pin, MHz, or ``None`` for the performance
        #: governor.
        self._pins: Tuple[Optional[float], ...] = (None,) * count
        self._apply_governors()

        # -- per-iteration world state (see begin_iteration) -----------------
        self._phase: Optional[str] = None
        #: Times the active cohort shrank mid-phase (cooldown divergence).
        self.cohort_splits = 0
        self._check_invariants = check_invariants
        #: Each unit's name in invariant diagnostics (default: its serial).
        self._labels = (
            list(labels) if labels is not None
            else [dev.serial for dev in self.devices]
        )
        self._invariants = None
        self.begin_iteration()

    # -- protocol surface ---------------------------------------------------

    @property
    def count(self) -> int:
        """Number of units in the batch."""
        return self._count

    @property
    def dt(self) -> float:
        """Engine step, seconds."""
        return self._dt

    @property
    def ops_total(self) -> np.ndarray:
        """Per-unit work retired this iteration, ops."""
        return self._ops_total.copy()

    @property
    def energy_drawn_j(self) -> np.ndarray:
        """Per-unit cumulative supply energy, joules."""
        return self._energy_total.copy()

    @property
    def clock_now(self) -> np.ndarray:
        """Per-unit iteration clock time, seconds."""
        return self._clock_steps * self._dt

    @property
    def looped_steps(self) -> np.ndarray:
        """Per-unit engine steps actually looped (clock minus macro steps)."""
        return self._clock_steps - self._ff_steps

    @property
    def fast_forward_steps(self) -> np.ndarray:
        """Per-unit clock steps covered by macro propagations."""
        return self._ff_steps.copy()

    @property
    def fast_forward_windows(self) -> np.ndarray:
        """Per-unit macro windows taken this iteration."""
        return self._ff_windows.copy()

    def ambient_now(self) -> np.ndarray:
        """Per-unit ambient the devices currently see, °C."""
        if self._chamber is not None:
            return self._chamber.air_temps_c.copy()
        return self._room_ambient.copy()

    @property
    def traces(self) -> List[Trace]:
        """Per-unit iteration traces, built from the cohort store on read.

        Each unit's :class:`Trace` adopts its rows of the store (no copy)
        with its phase spans.  Repeated reads return the same objects
        until the next recorded sample or phase change.
        """
        if self._traces is None:
            self._traces = self._build_traces()
        return self._traces

    @property
    def event_logs(self) -> List[EventLog]:
        """Per-unit iteration event logs, built from the event store on read."""
        if self._event_logs is None:
            self._event_logs = self._build_event_logs()
        return self._event_logs

    def event_count(self, kind: str) -> int:
        """Events of one category this iteration, summed over units."""
        return self._event_counts.get(kind, 0)

    def begin_iteration(self) -> None:
        """Reset per-iteration world state (the serial path's fresh World)."""
        count = self._count
        # Cohort-columnar trace store: unit ``i``'s samples are rows
        # ``[0, _trace_rows[i])`` of ``_trace_store[i]`` (time, then the
        # TRACE_CHANNELS).  Units leave cooldown at different steps, so
        # each keeps its own row cursor.  Built traces adopt views of a
        # store, so every iteration starts a fresh one.
        self._trace_store = np.empty((count, _TRACE_ROWS, 1 + len(TRACE_CHANNELS)))
        self._trace_rows = np.zeros(count, dtype=np.int64)
        #: ``(name or None, per-unit clock time)`` of every phase change.
        self._phase_marks: List[tuple] = []
        #: Event store: single-kind ``(kind, units, times, key, values)``
        #: chunks in logging order (see _log_events).
        self._event_chunks: List[tuple] = []
        self._event_counts: "dict[str, int]" = {}
        self._traces: Optional[List[Trace]] = None
        self._event_logs: Optional[List[EventLog]] = None
        self._clock_steps = np.zeros(count, dtype=np.int64)
        # Awake steps left before the next one on which some unit's clock
        # is a multiple of the trace decimation (see _step_awake step 7).
        self._trace_wait = 0
        # Serial World.__init__ starts the event edge-detector at zero steps
        # but at the device's *actual* online count.
        self._last_mit = np.zeros(count, dtype=np.int64)
        self._last_online = self._online_totals()
        self._edge_pending = bool(self._stw_steps.any())
        self._last_trace_stamp = np.full(count, -np.inf)
        self._prev_supply = np.zeros(count)
        self._ops_total = np.zeros(count)
        self._ff_windows = np.zeros(count, dtype=np.int64)
        self._ff_steps = np.zeros(count, dtype=np.int64)
        self._phase = None
        if self._check_invariants:
            # The batched observer of the invariants the serial engine's
            # InvariantSuite drives: the same checks, fed per-unit arrays.
            # Imported lazily, mirroring Accubench._new_world:
            # repro.check depends on the runner, which depends on this
            # module.  Fresh per iteration, like the serial per-World suite.
            from repro.check.invariants import BatchedInvariantSuite

            self._invariants = BatchedInvariantSuite(
                labels=self._labels,
                node_temps_c=self._temps,
                meter_j=self._energy_total,
                throttle_steps=self._stw_steps,
                throttle=self._spec.throttle,
            )

    def acquire_wakelock(self) -> None:
        """Hold every unit awake."""
        self._wakelock = True

    def release_wakelock(self) -> None:
        """Let every unit suspend."""
        self._wakelock = False

    def start_load(
        self, utilization: float = 1.0, memory_boundedness: float = 0.0
    ) -> None:
        """Load every core on every unit (the π loop on all CPUs).

        Mirrors :meth:`Device.start_load`: ``memory_boundedness`` is the
        workload's frequency-independent stall fraction (at top clock).
        """
        if not 0.0 < utilization <= 1.0:
            raise SimulationError("utilization must be within (0, 1]")
        if not 0.0 <= memory_boundedness < 1.0:
            raise SimulationError("memory_boundedness must be within [0, 1)")
        self._load_active = True
        self._utilization = utilization
        self._mem_beta = memory_boundedness
        self._apply_governors()

    def stop_load(self) -> None:
        """Stop the benchmark load on every unit."""
        self._load_active = False
        self._apply_governors()

    def pin_frequencies(self, pins: Sequence[Optional[float]]) -> None:
        """Pin each unit's clusters at their nearest ladder step below its
        frequency; a ``None`` entry leaves that unit on the performance
        governor."""
        self._pins = tuple(pins)
        self._apply_governors()

    def set_phase(self, name: Optional[str]) -> None:
        """Annotate every unit's trace with a protocol phase from now on."""
        if self._phase is not None or name is not None:
            now = self._clock_steps * self._dt
            self._phase_marks.append((name, now))
            self._traces = None
            if name is not None:
                self._log_events("phase", None, now, "name", name)
        self._phase = name

    def close(self) -> None:
        """End any open phase annotation."""
        self.set_phase(None)

    # -- engine -------------------------------------------------------------

    def run_for(self, duration_s: float) -> None:
        """Advance every unit, awake, for a fixed duration."""
        if duration_s <= 0:
            raise SimulationError("duration_s must be positive")
        steps = round(duration_s / self._dt)
        if steps < 1:
            raise SimulationError("duration shorter than one clock step")
        if not (self._wakelock or self._load_active):
            raise SimulationError(
                "batched run_for requires awake units; use run_cooldown for sleep"
            )
        for _ in range(steps):
            self._step_awake()

    def run_cooldown(
        self, targets_c: np.ndarray, poll_s: float, timeout_s: float
    ) -> np.ndarray:
        """Cooldown every unit to its target; returns per-unit elapsed time.

        The batched mirror of the serial ``World.run_cooldown`` loop:
        per unit, the sensor is polled first (its noise draw included), then
        the still-cooling cohort fast-forwards one poll window as a single
        exact propagation.  Units that pass freeze in place until the whole
        cohort is done.  Raises :class:`SimulationError` when any unit's
        cooldown exceeds ``timeout_s``, matching the serial failure mode.
        """
        if poll_s < self._dt:
            raise SimulationError("check_every_s must be at least one clock step")
        if self._wakelock or self._load_active:
            raise SimulationError("cooldown requires suspended units")
        dt = self._dt
        count = self._count
        active = np.ones(count, dtype=bool)
        started = self._clock_steps * dt
        elapsed = np.zeros(count)
        cohort = count
        while True:
            if cohort == count:
                done = np.flatnonzero(self._read_sensors(None) <= targets_c)
            else:
                polled = np.flatnonzero(active)
                done = polled[self._read_sensors(polled) <= targets_c[polled]]
            elapsed[done] = self._clock_steps[done] * dt - started[done]
            active[done] = False
            remaining = int(active.sum())
            if remaining == 0:
                return elapsed
            if remaining != cohort:
                self.cohort_splits += 1
                cohort = remaining
            overdue = active & (self._clock_steps * dt - started >= timeout_s)
            if overdue.any():
                raise SimulationError(f"run_until timed out after {timeout_s} s")
            self._fast_forward(active, poll_s)

    def run_asleep(self, duration_s: float) -> None:
        """Advance every unit, suspended, as a single exact macro window.

        The batched mirror of the serial per-poll ``world.run_for`` calls
        in :func:`repro.core.ambient_estimation.cooldown_probe`: a
        sleeping unit's power draw is constant and it draws no randomness,
        so a whole observation window collapses into one zero-order-hold
        propagation per unit without perturbing any RNG stream.
        """
        if duration_s <= 0:
            raise SimulationError("duration_s must be positive")
        if self._wakelock or self._load_active:
            raise SimulationError("run_asleep requires suspended units")
        if round(duration_s / self._dt) < 1:
            raise SimulationError("duration shorter than one clock step")
        self._fast_forward(self._all_units, duration_s)

    def read_sensors(self) -> np.ndarray:
        """Poll every unit's CPU temperature sensor, one draw per unit."""
        return self._read_sensors(None)

    def finalize(self) -> None:
        """Write the batched state back into the per-unit Device objects."""
        self._os_draws.hand_back()
        self._sensor_draws.hand_back()
        for i, dev in enumerate(self.devices):
            for node in range(self._node_count):
                dev.thermal.set_temperature_at(node, float(self._temps[i, node]))
            dev._now_s = float(self._now_dev[i])
            dev.os._steal_frac = float(self._steal_frac[i])
            dev.os._steal_until_s = float(self._steal_until[i])
            stepwise = dev.soc.throttle.stepwise
            stepwise._steps = int(self._stw_steps[i])
            stepwise._next_poll_s = float(self._stw_next[i])
            if self._has_skin:
                dev.skin_throttle._steps = int(self._skin_steps[i])
                dev.skin_throttle._next_poll_s = float(self._skin_next[i])
                dev.soc.external_ceiling_steps = int(self._skin_steps[i])
            dev.soc.set_memory_boundedness(self._mem_beta)
            if self._has_shutdown:
                shutdown = dev.soc.throttle.shutdown
                shutdown._offline = int(self._shd_offline[i])
                shutdown._next_poll_s = float(self._shd_next[i])
            dev.soc.mitigation = MitigationState(
                ceiling_steps=int(self._stw_steps[i]),
                offline_cores=int(self._shd_offline[i]),
            )
            if self._battery_mode and self._vt_ceiling is not None:
                dev.soc.external_ceiling_mhz = (
                    self._vt_ceiling if self._capped[i] else None
                )
            else:
                dev.soc.external_ceiling_mhz = self._external_mhz
            for k, batch in enumerate(self._clusters):
                cluster = dev.soc.clusters[k]
                cluster.set_frequency(float(batch.freq[i]))
                cluster.voltage_adjust_v = float(batch.voltage_adjust[i])
            dev.soc.clusters[0].set_online_count(int(self._online_big[i]))
            supply = dev.supply
            if self._battery_mode:
                supply._soc = float(self._bat_soc[i])
                supply._last_load_w = float(self._bat_last_load[i])
                supply._energy_drawn_j = float(self._energy_total[i])
            else:
                supply._elapsed_s = float(self._elapsed[i])
                supply._energy_j = float(self._energy_win[i])
                supply._energy_total_j = float(self._energy_total[i])
                supply._charge_c = float(self._charge[i])
                supply._peak_current_a = float(self._peak[i])

    # -- internals ----------------------------------------------------------

    def _apply_governors(self) -> None:
        """Resolve each cluster's pinned target, mirroring Device governors.

        ``None`` means the performance governor (chase the ceiling); an
        index is the userspace pin.  Because the pin and the mitigated
        ceiling are both exact ladder rungs, ``nearest(min(pin, ceiling))``
        collapses to ``ladder[min(pin_index, ceiling_index)]``, so the hot
        loop never needs a searchsorted.  Pins resolve to a per-unit index
        array whose unpinned units hold the top rung, where the minimum is
        a no-op: their frequency is the governor's, unchanged.
        """
        self._gov_cache = None
        pins = self._pins
        pinned = any(pin is not None for pin in pins)
        for batch in self._clusters:
            if not self._load_active:
                batch.fixed_index = 0  # UserspaceGovernor(min_freq_mhz)
            elif not pinned:
                batch.fixed_index = None
            else:
                top = batch.ladder.size - 1
                batch.fixed_index = np.array(
                    [top if pin is None else batch.nearest_index(pin)
                     for pin in pins],
                    dtype=np.int64,
                )

    def _online_totals(self) -> np.ndarray:
        return self._online_big + self._other_cores

    def _read_sensors(self, units: Optional[np.ndarray]) -> np.ndarray:
        """Vectorized serial TemperatureSensor reads of ``units``' CPU
        nodes (``None``: every unit, without gathers)."""
        if units is None:
            value = self._temps[:, self._idx_cpu] + self._sensor_offset
            noisy = None if self._all_noisy else self._sensor_noisy
            units = self._rows
        else:
            value = self._temps[units, self._idx_cpu] + self._sensor_offset
            noisy = self._sensor_noisy[units]
        if noisy is None:
            value += self._sensor_sigma * self._sensor_draws.take_all()
        elif noisy.any():
            draws = self._sensor_draws.take(units[noisy])
            value[noisy] += self._sensor_sigma * draws
        quantum = self._sensor_quantum
        if quantum > 0:
            # np.rint rounds half to even like Python's round; adding 0.0
            # turns a -0.0 into the +0.0 that round()'s int 0 would give.
            value = (np.rint(value / quantum) + 0.0) * quantum
        return value

    # -- battery bank -------------------------------------------------------

    def _battery_ocv(self, soc: np.ndarray) -> np.ndarray:
        """Piecewise-linear OCV, bracket-for-bracket with ``BatterySpec.ocv_v``."""
        xs = self._bat_curve_soc
        ys = self._bat_curve_v
        hi = np.searchsorted(xs, soc, side="left")
        np.maximum(hi, 1, out=hi)
        np.minimum(hi, xs.size - 1, out=hi)
        lo = hi - 1
        frac = (soc - xs[lo]) / (xs[hi] - xs[lo])
        return ys[lo] + frac * (ys[hi] - ys[lo])

    def _battery_terminal_v(
        self, power: np.ndarray, soc: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vector mirror of ``Battery._terminal_voltage``."""
        soc = self._bat_soc if soc is None else soc
        ocv = self._battery_ocv(soc)
        r = self._bat_resistance
        if r == 0.0:
            return ocv
        volts = ocv.copy()
        need = power != 0.0
        if need.any():
            open_v = ocv[need]
            disc = open_v * open_v - 4.0 * power[need] * r
            if (disc <= 0.0).any():
                worst = float(np.asarray(power)[need].max())
                raise SimulationError(
                    f"load {worst} W exceeds what the battery can deliver"
                )
            volts[need] = 0.5 * (open_v + np.sqrt(disc))
        return volts

    def _battery_draw_awake(self, supply: np.ndarray, dt: float) -> None:
        """Every unit's ``Battery.draw`` for one awake step, vectorized.

        Two scalar bounds stand in for vector checks that cannot fire.  A
        peak load under ``_bat_safe_w`` skips the exact terminal-voltage
        solve.  ``_bat_floor`` is a lower bound on every unit's state of
        charge, carried down each step by the drain of the peak load:
        rounding is monotone, so no unit drains more.  While it is
        positive no battery can be empty and the clamp at zero is a
        no-op, so both are skipped.
        """
        soc = self._bat_soc
        floor = self._bat_floor
        if not floor > 0.0 and (soc <= 0.0).any():
            raise SimulationError("battery is empty")
        peak = float(supply.max())
        if peak >= self._bat_safe_w:
            self._battery_terminal_v(supply)  # exact deliverability check
        self._bat_last_load = supply.copy()
        energy = supply * dt
        self._energy_total += energy
        drain = energy / self._bat_capacity
        floor -= peak * dt / self._bat_capacity
        if floor > 0.0:
            np.subtract(soc, drain, out=soc)
        else:
            np.maximum(0.0, soc - drain, out=soc)
            floor = float(soc.min())
        self._bat_floor = floor

    def _battery_draw_masked(
        self, active: Union[np.ndarray, slice], power_w: float, duration: float
    ) -> None:
        """The active cohort's ``Battery.draw`` for one sleeping macro window.

        ``active`` is a unit mask, or a slice for every unit.  The scalar
        bounds of :meth:`_battery_draw_awake` guard the same checks.
        """
        soc = self._bat_soc[active]
        if not self._bat_floor > 0.0 and (soc <= 0.0).any():
            raise SimulationError("battery is empty")
        if power_w >= self._bat_safe_w:
            self._battery_terminal_v(np.full(soc.size, power_w), soc)
        self._bat_last_load[active] = power_w
        self._energy_total[active] += power_w * duration
        self._bat_soc[active] = np.maximum(
            0.0, soc - power_w * duration / self._bat_capacity
        )
        self._bat_floor = float(self._bat_soc.min())

    @staticmethod
    def _core_sum(per_core, core_count, online):
        """Per unit, ``per_core`` added once per online core, left to right.

        The serial cluster sums its online cores by repeated addition (not
        a multiply — they differ at the last ulp for 3+ cores).  ``online``
        is the per-unit online count, or ``None`` when every core is
        online; then each unit's sum is picked from the running partial
        sums (``0.0 + x`` is ``x`` for these non-negative terms).
        """
        if online is None:
            total = per_core.copy()
            for _ in range(core_count - 1):
                total += per_core
            return total
        partial = per_core
        sums = [np.zeros_like(per_core), partial]
        for _ in range(core_count - 1):
            partial = partial + per_core
            sums.append(partial)
        return np.choose(online, sums)

    def _voltage_terms(self, batch, voltage, hz, activity, online):
        """One cluster's rail-voltage-dependent power terms, per unit.

        Returns the dynamic power summed over online cores and one core's
        leakage before its temperature factor.  ``activity`` is the
        per-core switching activity (``None`` for a fully busy core),
        ``online`` the per-unit online core count when some unit has
        cores offline (``None`` when every core is online).
        """
        base = batch.c_eff * voltage * voltage * hz
        per_core_dyn = base if activity is None else base * activity
        dynamic = self._core_sum(per_core_dyn, batch.core_count, online)
        volt_term = (voltage / batch.leak_vref) * np.exp(
            batch.leak_volt_slope * (voltage - batch.leak_vref)
        )
        return dynamic, batch.leak_coeff * volt_term

    @staticmethod
    def _must_check(slack: float, dt: float) -> bool:
        """Whether a deadline's slack no longer proves no unit is due.

        Half a step of headroom is far above the rounding the slack and
        the unit clocks accumulate between exact checks.
        """
        return slack <= 0.5 * dt

    @staticmethod
    def _poll_policy(
        die, die_max, now, state, next_poll, interval, hot_t, cold_t, cap, dt
    ):
        """Masked replay of the serial sampled-mitigation ``while`` loop.

        Updates ``state`` and ``next_poll`` in place.  Returns whether any
        unit's poll fired, whether any unit's mitigation state moved (when
        none did, the governor block has nothing new to see) and the
        policy's slack for the next step.  ``die_max`` is ``die.max()``.
        """
        # A unit is due when ``now >= next``, which for finite floats is
        # ``next - now <= 0`` (IEEE subtraction of distinct values is
        # never zero); the smallest gap is also the slack.
        gap = next_poll - now
        least = gap.min()
        if least > 0.0:
            return False, False, float(least) - dt
        moved = False
        # No unit at the hot threshold cannot deepen, and a policy with
        # every unit at step zero cannot clear: the scalar tests skip
        # the masked updates that would change nothing.
        can_deepen = die_max >= hot_t
        while True:
            due = gap <= 0.0
            np.add(next_poll, interval, out=next_poll, where=due)
            if can_deepen:
                deeper = die >= hot_t
                deeper &= due
                deeper &= state < cap
                if np.count_nonzero(deeper):
                    state += deeper
                    moved = True
            if np.count_nonzero(state):
                lighter = die <= cold_t
                lighter &= due
                lighter &= state > 0
                if np.count_nonzero(lighter):
                    state -= lighter
                    moved = True
            gap = next_poll - now
            least = gap.min()
            if least > 0.0:
                return True, moved, float(least) - dt

    def _step_awake(self) -> None:
        """One lock-step awake engine step for every unit."""
        dt = self._dt
        count = self._count
        temps = self._temps
        now = self._now_dev

        # 1. Chamber absorbs last step's waste heat; units see its air.
        if self._chamber is not None:
            self._chamber.step_masked(
                None, self._room_temp, dt, self._prev_supply
            )
            # Read-only view; every consumer below copies what it keeps.
            ambient = self._chamber.air_temps_c
        else:
            ambient = self._room_ambient
        temps[:, self._idx_ambient] = ambient
        die = temps[:, self._idx_cpu]

        # 2. Mitigation polls: skin surface estimate first (the serial
        # Device.step updates it before Soc.step), then the die-temperature
        # stepwise loop and the optional hard-limit hotplug monitor.  Each
        # policy is guarded by its slack (see __init__): while it proves
        # no unit is due, the vector check (and its state changes) cannot
        # happen and the slack just counts down one step.
        must_check = self._must_check
        if self._has_skin:
            if must_check(self._skin_slack, dt):
                case_pre = temps[:, self._idx_case]
                surface = case_pre - (case_pre - ambient) * self._skin_contact
                _, moved, self._skin_slack = self._poll_policy(
                    surface, surface.max(), now, self._skin_steps,
                    self._skin_next, self._skin_interval, self._skin_hot,
                    self._skin_cold, self._skin_max, dt,
                )
                if moved:
                    self._gov_cache = None
            else:
                self._skin_slack -= dt
        check_stw = must_check(self._stw_slack, dt)
        check_shd = self._has_shutdown and must_check(self._shd_slack, dt)
        die_max = die.max() if check_stw or check_shd else None
        if check_stw:
            fired, polled, self._stw_slack = self._poll_policy(
                die, die_max, now, self._stw_steps, self._stw_next,
                self._stw_interval, self._stw_hot, self._stw_cold, self._stw_max,
                dt,
            )
        else:
            fired = polled = False
            self._stw_slack -= dt
        if check_shd:
            shd_fired, moved, self._shd_slack = self._poll_policy(
                die, die_max, now, self._shd_offline, self._shd_next,
                self._shd_interval, self._shd_hot, self._shd_cold,
                self._shd_max, dt,
            )
            fired = fired or shd_fired
            if moved:
                polled = True
                self._any_offline = bool(self._shd_offline.any())
        elif self._has_shutdown:
            self._shd_slack -= dt
        if polled:
            self._gov_cache = None
        mit_steps = self._stw_steps

        # 3. RBCPR: one evaluation serves every cluster this step.
        if self._rbcpr is not None:
            block = self._rbcpr
            recovered = block.margin_recovery_mv_per_c * np.maximum(
                0.0, die - block.reference_temp_c
            )
            margin = np.maximum(block.min_margin_mv, block.base_margin_mv - recovered)
            adjust = self._rbcpr_comp + margin / 1000.0
        else:
            adjust = None

        # 4. Per-cluster governor, voltage, power and retire rate.  On a
        # quiet step (no poll fired, no governor knob moved since the
        # cache was built) the clock, table voltage, activity, hotplug and
        # retire rate are unchanged, so the cached per-cluster arrays are
        # replayed.  Only the temperature-dependent leakage factor and, on
        # RBCPR parts, what the rail voltage moves (dynamic power and the
        # leakage voltage term) are recomputed — float-for-float the same
        # expressions the build step evaluated.  Each cluster adds
        # ``dynamic + lv·temp_term·leak_cores`` to the SoC power; the
        # first cluster's term is the sum itself, as ``0.0 + x`` is ``x``
        # for these non-negative terms.
        temp_term = np.exp(self._leak_temp_slope * (die - 40.0))
        soc_power = None
        cache = self._gov_cache
        if cache is not None:
            cluster_cache, ops_step, online_big = cache
            self._online_big = online_big
            for batch, table_v, hz, activity, online, dynamic, lv, leak_cores in (
                cluster_cache
            ):
                if adjust is not None:
                    batch.voltage_adjust = adjust
                    dynamic, lv = self._voltage_terms(
                        batch, table_v + adjust, hz, activity, online
                    )
                term = lv * temp_term
                term *= leak_cores
                term += dynamic
                if soc_power is None:
                    soc_power = term
                else:
                    soc_power += term
        else:
            util = self._utilization if self._load_active else 0.0
            ceiling_steps = (
                mit_steps + self._skin_steps if self._has_skin else mit_steps
            )
            ops_rate_total = np.zeros(count)
            if self._battery_mode and self._vt_threshold is not None:
                # Serial Device.step consults the supply's terminal voltage
                # (last step's load, current SoC) before Soc.step each step.
                self._capped = (
                    self._battery_terminal_v(self._bat_last_load)
                    <= self._vt_threshold
                )
            capped = self._capped
            mem_beta = self._mem_beta
            cluster_cache = []
            for k, batch in enumerate(self._clusters):
                ladder = batch.ladder
                # Frequency choice in pure index space (see _apply_governors).
                freq_index = ladder.size - 1 - ceiling_steps
                np.maximum(freq_index, 0, out=freq_index)
                if batch.external_index is not None:
                    if self._battery_mode:
                        binds = capped & (self._vt_ceiling < ladder[freq_index])
                    else:
                        binds = self._external_mhz < ladder[freq_index]
                    freq_index[binds] = batch.external_index
                if batch.fixed_index is not None:
                    np.minimum(freq_index, batch.fixed_index, out=freq_index)
                freq = ladder[freq_index]
                batch.freq = freq
                if adjust is not None:
                    batch.voltage_adjust = adjust
                table_v = batch.volt_table[self._rows, freq_index]
                hz = freq * 1e6
                if mem_beta > 0.0:
                    # ClusterState._cpu_time_share / ops_per_second,
                    # element-wise: stall time is fixed at the top clock,
                    # CPU time scales 1/f.
                    ratio = mem_beta / (1.0 - mem_beta)
                    cpu_time = 1.0 / freq
                    mem_time = ratio / batch.max_freq
                    share = cpu_time / (cpu_time + mem_time)
                    activity = util * share
                    per_core_rate = hz * batch.ipc
                    per_core_rate = 1.0 / (
                        1.0 / per_core_rate + ratio / batch.top_rate
                    )
                    per_core_ops = per_core_rate * util
                else:
                    activity = None if util == 1.0 else util
                    per_core_ops = (hz * batch.ipc) * util
                # Hotplug sheds big-cluster cores only.
                if k == 0 and self._any_offline:
                    online = np.maximum(0, batch.core_count - self._shd_offline)
                    self._online_big = online
                    leak_cores = online
                else:
                    if k == 0:
                        self._online_big = self._online_big_full
                    online = None
                    leak_cores = batch.core_count
                retire = self._core_sum(per_core_ops, batch.core_count, online)
                dynamic, lv = self._voltage_terms(
                    batch, table_v + batch.voltage_adjust, hz, activity, online
                )
                term = lv * temp_term
                term *= leak_cores
                term += dynamic
                if soc_power is None:
                    soc_power = term
                else:
                    soc_power += term
                ops_rate_total += retire
                cluster_cache.append(
                    (batch, table_v, hz, activity, online, dynamic, lv, leak_cores)
                )
            ops_step = ops_rate_total * dt
            if self._gov_cacheable:
                self._gov_cache = (cluster_cache, ops_step, self._online_big)

        # 5. OS: cycle steal (piecewise-constant, resampled per interval)
        # then residual background noise — one draw per unit per step, in
        # the serial order, from each unit's own stream (its block row).
        # ``ops_step`` is shared with the governor cache: never written.
        if self._steal_enabled:
            if must_check(self._steal_slack, dt):
                gap = self._steal_until - now
                least = gap.min()
                if least <= 0.0:
                    units = (gap <= 0.0).nonzero()[0]
                    sampled = (
                        self._steal_mean
                        + self._steal_sigma * self._os_draws.take(units)
                    )
                    self._steal_frac[units] = np.minimum(
                        np.maximum(sampled, 0.0), self._steal_max
                    )
                    self._steal_until[units] = now[units] + self._steal_interval
                    self._steal_keep = 1.0 - self._steal_frac
                    least = (self._steal_until - now).min()
                self._steal_slack = float(least) - dt
            else:
                self._steal_slack -= dt
            ops = ops_step * self._steal_keep
        else:
            ops = ops_step
        if self._noise_enabled:
            noise = self._scr_noise
            # normal(0, σ) is 0.0 + σ·z; that 0.0 only flips the sign of
            # a zero draw, which adding bg_power cancels.
            np.multiply(self._bg_sigma, self._os_draws.take_all(), out=noise)
            noise += self._bg_power
            np.maximum(noise, 0.0, out=noise)
        else:
            noise = self._noise_const

        # 6. Rails, supply metering, thermal injection.  ``supply`` is
        # ``(soc_power + idle + noise) / efficiency``, in place on one
        # fresh array.  The case node's injection is always zero, and the
        # buffer was built that way.
        supply = soc_power + self._awake_idle
        supply += noise
        supply /= self._efficiency
        if self._battery_mode:
            self._battery_draw_awake(supply, dt)
        else:
            current = supply / self._voltage
            self._elapsed += dt
            energy = supply * dt
            self._energy_win += energy
            self._energy_total += energy
            self._charge += current * dt
            np.maximum(self._peak, current, out=self._peak)
        power = self._power_buf
        power[:, self._idx_cpu] = soc_power
        np.subtract(supply, soc_power, out=power[:, self._idx_pkg])
        self._propagator.advance_batch(temps, power, dt)
        self._now_dev = now + dt
        self._ops_total += ops

        # 7. Events, decimated trace, tick.  Mitigation and hotplug state
        # only move when a policy poll moves them, so the edge detectors are
        # skipped on other steps — except that an iteration starting with
        # steps already set has an edge pending (its detector starts at
        # zero), which the first fired poll logs.  A unit records on steps
        # where its clock is a multiple of the decimation; ``_trace_wait``
        # counts the steps until the first such one, so the steps between
        # skip the fleet-wide modulo.
        if polled or (fired and self._edge_pending):
            self._record_events(mit_steps)
        clock_steps = self._clock_steps
        if self._trace_wait:
            self._trace_wait -= 1
            clock_steps += 1
        else:
            due = clock_steps % self._decimation == 0
            recording = np.count_nonzero(due)
            if recording:
                self._record_traces(
                    self._rows if recording == count else due.nonzero()[0],
                    clock_steps * dt, ambient, supply, soc_power, 0.0,
                )
            clock_steps += 1
            self._trace_wait = self._steps_to_trace()
        self._prev_supply = supply
        if self._invariants is not None:
            self._invariants.observe_awake(
                clock_steps * dt,
                self._phase,
                temps[:, self._idx_cpu],
                temps[:, self._idx_case],
                ambient,
                supply,
                self._energy_total,
                self._stw_steps,
                dt,
            )

    def _steps_to_trace(self) -> int:
        """Awake steps until some unit's clock is a decimation multiple."""
        return int(((-self._clock_steps) % self._decimation).min())

    def _fast_forward(self, active: np.ndarray, window_s: float) -> None:
        """Advance the sleeping active cohort one poll window exactly.

        With every unit asleep (the probe's windows, a cooldown before its
        first exit) the updates select with a basic slice, in place,
        instead of gathering and scattering through the mask.
        """
        dt = self._dt
        steps = round(window_s / dt)
        duration = steps * dt
        everyone = np.count_nonzero(active) == self._count
        sel = slice(None) if everyone else active
        if self._chamber is not None:
            self._chamber.run_for_masked(
                active, self._room_temp, duration, self._prev_supply
            )
            ambient = self._chamber.air_temps_c
        else:
            ambient = self._room_ambient
        temps = self._temps
        temps[sel, self._idx_ambient] = ambient[sel]
        supply = self._asleep_w / self._efficiency
        if self._battery_mode:
            self._battery_draw_masked(sel, supply, duration)
        else:
            current = supply / self._voltage
            self._elapsed[sel] += duration
            energy = supply * duration
            self._energy_win[sel] += energy
            self._energy_total[sel] += energy
            self._charge[sel] += current * duration
            self._peak[sel] = np.maximum(self._peak[sel], current)
        if everyone:
            self._propagator.advance_batch(temps, self._asleep_power, duration)
        else:
            sub = temps[active]
            power = np.zeros_like(sub)
            power[:, self._idx_pkg] = supply
            self._propagator.advance_batch(sub, power, duration)
            temps[active] = sub
        self._now_dev[sel] += duration
        # Only the active units' clocks moved, and by a whole window, so
        # every poll slack is stale: the next awake step checks exactly.
        self._stw_slack = self._shd_slack = 0.0
        self._skin_slack = self._steal_slack = 0.0
        self._clock_steps[sel] += steps
        self._ff_windows[sel] += 1
        self._ff_steps[sel] += steps
        self._prev_supply[sel] = supply
        # Macro windows always leave a trace sample at the poll boundary;
        # mitigation and hotplug cannot change while asleep, so no events.
        clock_now = self._clock_steps * dt
        if self._invariants is not None:
            self._invariants.observe_asleep(
                active,
                clock_now,
                self._phase,
                temps[:, self._idx_cpu],
                ambient,
                supply,
                self._energy_total,
                duration,
            )
        self._record_traces(
            self._rows if everyone else active.nonzero()[0], clock_now,
            ambient, self._asleep_supply, self._zeros, 1.0,
        )
        self._trace_wait = self._steps_to_trace()

    def _record_events(self, mit_steps: np.ndarray) -> None:
        """Log every unit's mitigation-step and online-core edges."""
        online = self._online_totals()
        stepped = (mit_steps != self._last_mit).nonzero()[0]
        changed = (online != self._last_online).nonzero()[0]
        self._edge_pending = False
        if not (stepped.size or changed.size):
            return
        clock_now = self._clock_steps * self._dt
        # One chunk per event kind.  A unit logs at most one mitigation
        # and one hotplug edge per step, in that order, so splitting by
        # kind keeps every unit's own event order.
        if stepped.size:
            steps = mit_steps[stepped]
            deeper = steps > self._last_mit[stepped]
            for kind, pick in (("throttle-step", deeper), ("throttle-clear", ~deeper)):
                units = stepped[pick]
                self._log_events(kind, units, clock_now[units], "steps", steps[pick])
            self._last_mit[stepped] = steps
        if changed.size:
            count = online[changed]
            fewer = count < self._last_online[changed]
            for kind, pick in (("core-offline", fewer), ("core-online", ~fewer)):
                units = changed[pick]
                self._log_events(kind, units, clock_now[units], "online", count[pick])
            self._last_online[changed] = count

    def _log_events(self, kind, units, times, key, values) -> None:
        """Append one single-kind chunk to the event store.

        ``units`` of ``None`` means one event per unit with the shared
        detail ``values``; otherwise ``values`` aligns with ``units``.
        """
        size = self._count if units is None else units.size
        if size:
            self._event_chunks.append((kind, units, times, key, values))
            self._event_counts[kind] = self._event_counts.get(kind, 0) + size
            self._event_logs = None

    def _record_traces(
        self,
        units: np.ndarray,
        clock_now: np.ndarray,
        ambient: np.ndarray,
        supply: np.ndarray,
        soc_power: np.ndarray,
        asleep: float,
    ) -> None:
        """Write one sample per unit in ``units`` into the trace store.

        ``units`` of ``_rows`` itself (every unit) reads the per-unit
        arrays through a basic slice instead of gathering them.
        """
        sel = slice(None) if units is self._rows else units
        times = clock_now[sel]
        fresh = times > self._last_trace_stamp[sel]
        if self._invariants is not None:
            # Same-stamp re-records overwrite the previous row (as
            # Trace.append does), so only strictly advancing stamps reach
            # the monotone-time checker — mirroring what the serial
            # checker sees, where an overwrite never grows the trace.
            self._invariants.observe_trace(units[fresh], times[fresh])
        self._last_trace_stamp[sel] = times
        # A fresh stamp takes the unit's next row; a repeated one (a macro
        # window's end sample met by the next decimated step) overwrites
        # the unit's last row.
        rows = self._trace_rows[sel] + fresh
        self._trace_rows[sel] = rows
        rows -= 1
        store = self._trace_store
        if self._traces is not None:
            # Built traces are views of the store: leave them as they were.
            store = self._trace_store = store.copy()
            self._traces = None
        if rows.max() >= store.shape[1]:
            grown = np.empty((store.shape[0], 2 * store.shape[1], store.shape[2]))
            grown[:, : store.shape[1]] = store
            store = self._trace_store = grown
        temps = self._temps
        data = np.empty((units.size, store.shape[2]))
        data[:, 0] = times
        data[:, 1] = temps[sel, self._idx_cpu]
        data[:, 2] = temps[sel, self._idx_case]
        data[:, 3] = ambient[sel]
        data[:, 4] = supply[sel]
        data[:, 5] = soc_power[sel]
        data[:, 6] = self._clusters[0].freq[sel]
        data[:, 7] = self._online_totals()[sel]
        data[:, 8] = self._stw_steps[sel]
        data[:, 9] = asleep
        store[units, rows] = data

    def _build_traces(self) -> List[Trace]:
        """One :class:`Trace` per unit over its rows of the store."""
        traces = []
        for i in range(self._count):
            phases = []
            open_phase = None
            for name, times in self._phase_marks:
                now = times[i]
                if open_phase is not None:
                    phases.append(PhaseSpan(open_phase[0], open_phase[1], now))
                open_phase = None if name is None else (name, now)
            traces.append(
                Trace.from_samples(
                    TRACE_CHANNELS,
                    self._trace_store[i, : self._trace_rows[i]],
                    phases=phases,
                    open_phase=open_phase,
                )
            )
        return traces

    def _build_event_logs(self) -> List[EventLog]:
        """One :class:`EventLog` per unit, replaying the store in order."""
        logs = [EventLog() for _ in range(self._count)]
        for kind, units, times, key, values in self._event_chunks:
            if units is None:
                for i, log in enumerate(logs):
                    log.log(times[i], kind, **{key: values})
                continue
            for j, i in enumerate(units):
                logs[i].log(float(times[j]), kind, **{key: int(values[j])})
        return logs


class _ChamberView:
    """A cohort's private slice of a fleet-wide :class:`BatchedThermabox`.

    Chamber columns are fully independent — every update is elementwise
    per column — so the cohort's columns are detached into a narrow
    chamber at construction (each state array sliced out of the parent)
    and stepped at cohort width.  That is bit-identical to driving the
    cohort's columns through the parent's masked updates, but avoids
    paying full-fleet-width chamber math once per cohort per step.
    :meth:`writeback` scatters the final column state into the parent so
    post-run consumers (duty-cycle counters, elapsed time) see the whole
    fleet in one place again.
    """

    __slots__ = ("_parent", "_indices", "_box")

    _STATE = (
        "_air",
        "_element",
        "_time",
        "_next_control",
        "_heater",
        "_cooler",
        "_off_since",
        "_heater_seconds",
        "_cooler_seconds",
    )

    def __init__(self, parent: BatchedThermabox, indices: np.ndarray) -> None:
        self._parent = parent
        self._indices = indices
        box = BatchedThermabox(parent.config, count=int(indices.size))
        for name in self._STATE:
            setattr(box, name, getattr(parent, name)[indices])
        box._time_max = float(box._time.max())
        box._next_control_min = float(box._next_control.min())
        box._any_heater = bool(box._heater.any())
        box._any_cooler = bool(box._cooler.any())
        self._box = box

    @property
    def count(self) -> int:
        return self._box.count

    @property
    def air_temps_c(self) -> np.ndarray:
        return self._box.air_temps_c

    def step_masked(
        self, mask: np.ndarray, room_temp_c: float, dt: float, load_w: np.ndarray
    ) -> None:
        self._box.step_masked(mask, room_temp_c, dt, load_w)

    def run_for_masked(
        self,
        mask: np.ndarray,
        room_temp_c: float,
        duration_s: float,
        load_w: np.ndarray,
    ) -> None:
        self._box.run_for_masked(mask, room_temp_c, duration_s, load_w)

    def writeback(self) -> None:
        parent = self._parent
        for name in self._STATE:
            getattr(parent, name)[self._indices] = getattr(self._box, name)
        parent._time_max = max(parent._time_max, self._box._time_max)
        parent._next_control_min = float(parent._next_control.min())
        parent._any_heater = bool(parent._heater.any())
        parent._any_cooler = bool(parent._cooler.any())


class BatchedWorld:
    """A whole fleet — mixed device models included — advanced in lock-step.

    Units are grouped by device model into same-model cohort blocks
    (:class:`_CohortWorld`); each block shares one batched (Φ, Ψ)
    propagator application per step, so a mixed fleet advances through a
    block-diagonal update instead of falling back to per-unit worlds.
    Per-unit results come back in fleet order regardless of the cohort
    blocking, and every unit draws from its own serial-keyed RNG streams,
    so results are bit-identical to the serial path (within the BLAS
    summation budget of ``BATCH_SPEC``) for any model mix.

    A homogeneous fleet builds exactly one cohort and passes the chamber
    straight through; a mixed fleet hands each cohort a
    :class:`_ChamberView` over its own chamber columns.

    ``labels`` names each unit in invariant diagnostics (default: its
    serial).  The campaign runner adds each unit's workload, since a
    study cohort holds two workloads' copies of one fleet.
    """

    def __init__(
        self,
        devices: Sequence[Device],
        room_temp_c: Union[float, np.ndarray],
        chamber: Optional[BatchedThermabox] = None,
        dt: float = 0.1,
        trace_decimation: int = 5,
        check_invariants: bool = False,
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        if not devices:
            raise SimulationError("a batched world needs at least one unit")
        if labels is not None and len(labels) != len(devices):
            raise SimulationError("labels must have one entry per unit")
        self.devices = list(devices)
        count = len(devices)
        self._count = count
        self._dt = dt
        groups: "dict[str, List[int]]" = {}
        for i, dev in enumerate(devices):
            groups.setdefault(dev.spec.name, []).append(i)
        self._cohorts: List[tuple] = []
        self._chamber_views: List[_ChamberView] = []
        if len(groups) == 1:
            indices = np.arange(count)
            self._cohorts.append(
                (
                    indices,
                    _CohortWorld(
                        self.devices,
                        room_temp_c,
                        chamber=chamber,
                        dt=dt,
                        trace_decimation=trace_decimation,
                        check_invariants=check_invariants,
                        labels=labels,
                    ),
                )
            )
        else:
            room = np.asarray(room_temp_c, dtype=float)
            if room.ndim != 0 and room.shape != (count,):
                raise SimulationError(
                    "room_temp_c array must have one entry per unit"
                )
            if chamber is not None and chamber.count != count:
                raise SimulationError(
                    "chamber column count must match unit count"
                )
            for indices_list in groups.values():
                indices = np.array(indices_list)
                cohort_room = (
                    float(room) if room.ndim == 0 else room[indices]
                )
                cohort_chamber = (
                    _ChamberView(chamber, indices) if chamber is not None else None
                )
                if cohort_chamber is not None:
                    self._chamber_views.append(cohort_chamber)
                self._cohorts.append(
                    (
                        indices,
                        _CohortWorld(
                            [self.devices[i] for i in indices_list],
                            cohort_room,
                            chamber=cohort_chamber,
                            dt=dt,
                            trace_decimation=trace_decimation,
                            check_invariants=check_invariants,
                            labels=(
                                None if labels is None
                                else [labels[i] for i in indices_list]
                            ),
                        ),
                    )
                )

    # -- fleet-order gather helpers -----------------------------------------

    def _gather(self, pull, dtype=float) -> np.ndarray:
        out = np.empty(self._count, dtype=dtype)
        for indices, world in self._cohorts:
            out[indices] = pull(world)
        return out

    def _gather_list(self, pull) -> list:
        out = [None] * self._count
        for indices, world in self._cohorts:
            items = pull(world)
            for j, i in enumerate(indices):
                out[i] = items[j]
        return out

    # -- protocol surface ---------------------------------------------------

    @property
    def count(self) -> int:
        """Number of units in the batch."""
        return self._count

    @property
    def dt(self) -> float:
        """Engine step, seconds."""
        return self._dt

    @property
    def traces(self) -> List[Trace]:
        """Per-unit iteration traces, fleet order."""
        return self._gather_list(lambda w: w.traces)

    @property
    def event_logs(self) -> List[EventLog]:
        """Per-unit iteration event logs, fleet order."""
        return self._gather_list(lambda w: w.event_logs)

    def event_count(self, kind: str) -> int:
        """Events of one category this iteration, summed over units."""
        return sum(world.event_count(kind) for _, world in self._cohorts)

    @property
    def cohort_splits(self) -> int:
        """Times any cohort's active set shrank mid-phase."""
        return sum(world.cohort_splits for _, world in self._cohorts)

    @property
    def ops_total(self) -> np.ndarray:
        """Per-unit work retired this iteration, ops."""
        return self._gather(lambda w: w.ops_total)

    @property
    def energy_drawn_j(self) -> np.ndarray:
        """Per-unit cumulative supply energy, joules."""
        return self._gather(lambda w: w.energy_drawn_j)

    @property
    def clock_now(self) -> np.ndarray:
        """Per-unit iteration clock time, seconds."""
        return self._gather(lambda w: w.clock_now)

    @property
    def looped_steps(self) -> np.ndarray:
        """Per-unit engine steps actually looped (clock minus macro steps)."""
        return self._gather(lambda w: w.looped_steps, dtype=np.int64)

    @property
    def now(self) -> float:
        """The furthest unit clock, seconds."""
        return float(self.clock_now.max())

    def engine_tallies(self) -> tuple:
        """:meth:`World.engine_tallies <repro.sim.engine.World.engine_tallies>`,
        summed over units."""
        return (
            int(self.looped_steps.sum()),
            sum(int(w.fast_forward_steps.sum()) for _, w in self._cohorts),
            sum(int(w.fast_forward_windows.sum()) for _, w in self._cohorts),
            float(self.clock_now.sum()), self.event_count, self._count,
        )

    def ambient_now(self) -> np.ndarray:
        """Per-unit ambient the devices currently see, °C."""
        return self._gather(lambda w: w.ambient_now())

    def begin_iteration(self) -> None:
        """Reset per-iteration world state (the serial path's fresh World)."""
        for _, world in self._cohorts:
            world.begin_iteration()

    def acquire_wakelock(self) -> None:
        """Hold every unit awake."""
        for _, world in self._cohorts:
            world.acquire_wakelock()

    def release_wakelock(self) -> None:
        """Let every unit suspend."""
        for _, world in self._cohorts:
            world.release_wakelock()

    def start_load(
        self, utilization: float = 1.0, memory_boundedness: float = 0.0
    ) -> None:
        """Load every core on every unit (the π loop on all CPUs)."""
        for _, world in self._cohorts:
            world.start_load(utilization, memory_boundedness)

    def stop_load(self) -> None:
        """Stop the benchmark load on every unit."""
        for _, world in self._cohorts:
            world.stop_load()

    def pin_frequencies(self, pins: Sequence[Optional[float]]) -> None:
        """Pin each unit (fleet order) at its nearest ladder step below a
        frequency, the FIXED-FREQUENCY configuration; a ``None`` entry
        restores that unit's performance governor (UNCONSTRAINED)."""
        if len(pins) != self._count:
            raise SimulationError("pins must have one entry per unit")
        for indices, world in self._cohorts:
            world.pin_frequencies([pins[i] for i in indices])

    def set_phase(self, name: Optional[str]) -> None:
        """Annotate every unit's trace with a protocol phase from now on."""
        for _, world in self._cohorts:
            world.set_phase(name)

    def close(self) -> None:
        """End any open phase annotation."""
        for _, world in self._cohorts:
            world.close()

    def run_for(self, duration_s: float) -> None:
        """Advance every unit, awake, for a fixed duration.

        Cohorts run sequentially — units never interact and chamber
        columns are independent, so block order cannot change any unit's
        trajectory.
        """
        for _, world in self._cohorts:
            world.run_for(duration_s)

    def run_cooldown(
        self, targets_c: np.ndarray, poll_s: float, timeout_s: float
    ) -> np.ndarray:
        """Cooldown every unit to its target; returns per-unit elapsed time."""
        targets = np.asarray(targets_c, dtype=float)
        elapsed = np.empty(self._count)
        for indices, world in self._cohorts:
            elapsed[indices] = world.run_cooldown(
                targets[indices], poll_s, timeout_s
            )
        return elapsed

    def run_asleep(self, duration_s: float) -> None:
        """Advance every unit, suspended, as a single exact macro window."""
        for _, world in self._cohorts:
            world.run_asleep(duration_s)

    def read_sensors(self) -> np.ndarray:
        """Poll every unit's CPU temperature sensor, one draw per unit."""
        return self._gather(lambda w: w.read_sensors())

    def finalize(self) -> None:
        """Write the batched state back into the per-unit Device objects."""
        for _, world in self._cohorts:
            world.finalize()
        for view in self._chamber_views:
            view.writeback()
