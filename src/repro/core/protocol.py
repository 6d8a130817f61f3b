"""The ACCUBENCH protocol state machine (paper Section III, Figure 4).

One iteration:

1. **Warmup** — acquire a wakelock and burn all cores for a fixed time, so
   a previously-idle CPU reaches the same thermal state as a busy one.
2. **Cooldown** — release the wakelock, sleep, and wake every 5 s to poll
   the temperature sensor until it reports the target temperature.  This
   normalizes the thermal state *downward* across devices and iterations.
3. **Workload** — reacquire the wakelock, zero the power monitor, and burn
   all cores for T_workload; performance is iterations completed, energy
   is the monitor's integral.

A fixed-*work* variant (:meth:`Accubench.run_fixed_work`) supports the
paper's Figures 1 and 2, which report energy to complete a set amount of
work rather than work completed in set time; it shares the conditioning.

:func:`run_phases` defines the sequence once, for :class:`Accubench`'s
serial world and for the batched engine (:mod:`repro.core.batch_runner`),
which builds its results and publishes its tallies here too.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AccubenchConfig
from repro.core.experiments import ExperimentSpec
from repro.core.results import IterationResult
from repro.device.phone import Device
from repro.errors import ProtocolError
from repro.instruments.thermabox import Thermabox
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.sim.engine import World
from repro.sim.trace import Trace
from repro.soc.perf import PI_ITERATION_OPS, iterations_from_ops
from repro.thermal.ambient import AmbientProfile

#: The cooldown target can never be below ambient; hold at least this
#: margin above the chamber/room temperature, °C.
MIN_COOLDOWN_MARGIN_C = 6.0


def throttled_time(trace: Trace) -> float:
    """Seconds of the workload phase spent with any mitigation step."""
    try:
        steps = trace.phase_column("workload", "throttle_steps")
    except Exception:  # no workload phase recorded
        return 0.0
    times = trace.times()
    if times.size < 2 or steps.size == 0:
        return 0.0
    sample_spacing = float(times[1] - times[0])
    return float((steps > 0).sum()) * sample_spacing


def iteration_result(
    device: Device, workload: str, trace: Trace, energy_j: float, completed: float,
    cooldown_s: float, window_s: float, keep_trace: bool,
) -> IterationResult:
    """One unit's :class:`IterationResult` from its finished trace.

    ``energy_j`` is the supply energy over the measured window of
    ``window_s`` seconds and ``completed`` the work figure reported for
    it.  Both engines build every result here.
    """
    return IterationResult(
        model=device.spec.name,
        serial=device.serial,
        workload=workload,
        iterations_completed=completed,
        energy_j=energy_j,
        mean_power_w=energy_j / window_s if window_s > 0 else 0.0,
        mean_freq_mhz=float(np.mean(trace.phase_column("workload", "freq"))),
        max_cpu_temp_c=trace.max("cpu_temp"),
        cooldown_s=cooldown_s,
        time_throttled_s=throttled_time(trace),
        trace=trace if keep_trace else None,
    )


def pin_frequency(target, fixed_freq_mhz: Optional[float]) -> None:
    """Pin a device at a frequency; ``None`` hands the clock back to the
    performance governor."""
    if fixed_freq_mhz is None:
        target.unconstrain_frequency()
    else:
        target.set_fixed_frequency(fixed_freq_mhz)


def publish_engine_tallies(
    registry: MetricsRegistry, looped_steps: int, fast_forward_steps: int,
    fast_forward_windows: int, sim_time_s: float,
    event_count: Callable[[str], int], iterations: int,
) -> None:
    """Harvest finished iterations' engine tallies into the registry.

    Worlds are fresh per protocol iteration, so the tallies are already
    per-iteration deltas; the batched engine passes its per-unit sums.
    ``event_count(kind)`` gives the iteration's events of one kind, so
    it is only consulted when the registry records.
    Every key is published even at zero, so a metrics document has the
    same schema whichever engine, solver or workload ran.
    """
    if not registry.enabled:
        return
    registry.counter("engine.steps").add(looped_steps)
    registry.counter("engine.fast_forward_steps").add(fast_forward_steps)
    registry.counter("engine.fast_forward_windows").add(fast_forward_windows)
    registry.counter("engine.sim_time_s").add(sim_time_s)
    registry.counter("engine.throttle_events").add(event_count("throttle-step"))
    registry.counter("engine.core_offline_events").add(
        event_count("core-offline")
    )
    registry.counter("protocol.iterations").add(iterations)


def propagator_cache_counts(devices: Sequence[Device]) -> Tuple[int, int]:
    """Summed (hits, misses) of the devices' distinct exact propagators.

    Deduped by identity, so a propagator shared by a model cohort is not
    double-counted.
    """
    propagators = {
        id(dev.thermal.propagator): dev.thermal.propagator
        for dev in devices
        if dev.thermal.propagator is not None
    }.values()
    return (
        sum(p.cache_hits for p in propagators),
        sum(p.cache_misses for p in propagators),
    )


def publish_instrument_tallies(
    registry: MetricsRegistry, devices: Sequence[Device],
    counts_before: Tuple[int, int], chamber,
) -> None:
    """Harvest one run's propagator-cache and chamber-duty tallies.

    ``counts_before`` is :func:`propagator_cache_counts` at run start:
    propagators outlive a run, chambers do not.  ``chamber`` is a
    :class:`~repro.instruments.thermabox.Thermabox`, its batched form
    (summed over units) or ``None``.
    """
    if not registry.enabled:
        return
    hits, misses = propagator_cache_counts(devices)
    registry.counter("propagator.cache_hits").add(hits - counts_before[0])
    registry.counter("propagator.cache_misses").add(misses - counts_before[1])
    for key, attr in (("heater_duty_s", "heater_duty_seconds"),
                      ("cooler_duty_s", "cooler_duty_seconds"),
                      ("elapsed_s", "elapsed_s")):
        registry.counter(f"thermabox.{key}").add(
            float(np.sum(getattr(chamber, attr))) if chamber is not None else 0.0
        )


def run_phases(world, load, config: AccubenchConfig, workload, condition=True):
    """Warmup → cooldown conditioning, then the measured workload.

    The one phase driver for both engines.  ``world`` is a serial
    :class:`~repro.sim.engine.World` or a
    :class:`~repro.sim.batch.BatchedWorld`; ``load`` takes the wakelock
    and the benchmark load (the serial world's device, or the batched
    world itself).  ``workload(world)`` advances the measured window and
    its return value comes back as ``window``.  Returns ``(cooldown_s,
    energy_j, ops, window)`` — per-unit arrays on a batched world —
    with ``cooldown_s`` zero when ``condition`` is false.
    """
    registry = default_registry()
    sim_clock = lambda: world.now  # noqa: E731
    cooldown_s = 0.0
    if condition:
        load.acquire_wakelock()
        load.start_load(config.utilization, config.memory_boundedness)
        world.set_phase("warmup")
        with registry.span("phase.warmup", clock=sim_clock):
            world.run_for(config.warmup_s)

        # Suspend, then poll the sensor every few seconds down to target.
        load.stop_load()
        load.release_wakelock()
        world.set_phase("cooldown")
        targets_c = np.maximum(
            config.cooldown_target_c, world.ambient_now() + MIN_COOLDOWN_MARGIN_C
        )
        with registry.span("phase.cooldown", clock=sim_clock):
            cooldown_s = world.run_cooldown(
                targets_c, config.cooldown_poll_s, config.cooldown_timeout_s
            )

    load.acquire_wakelock()
    load.start_load(config.utilization, config.memory_boundedness)
    energy_before = world.energy_drawn_j
    ops_before = world.ops_total
    world.set_phase("workload")
    with registry.span("phase.workload", clock=sim_clock):
        window = workload(world)
    energy_j = world.energy_drawn_j - energy_before
    ops = world.ops_total - ops_before
    load.stop_load()
    load.release_wakelock()
    world.close()
    publish_engine_tallies(registry, *world.engine_tallies())
    return cooldown_s, energy_j, ops, window


class Accubench:
    """Runs the protocol against one device."""

    def __init__(self, config: Optional[AccubenchConfig] = None) -> None:
        self.config = config if config is not None else AccubenchConfig()

    def run_iteration(
        self,
        device: Device,
        experiment: ExperimentSpec,
        room: Optional[AmbientProfile] = None,
        chamber: Optional[Thermabox] = None,
    ) -> IterationResult:
        """Run one warmup → cooldown → workload pass.

        The device must be powered from an energy-metered supply — the
        methodology's Monsoon, or a :class:`~repro.device.battery.Battery`
        (the paper compares both on the LG G5).  Device thermal and
        mitigation state carries over between calls — exactly like the
        paper's back-to-back iterations; the warmup/cooldown phases exist
        to normalize it.
        """
        config = self.config
        world = self._new_world(device, room, chamber)
        pin_frequency(device, experiment.fixed_freq_mhz)
        cooldown_s, energy_j, ops, _ = run_phases(
            world, device, config, lambda w: w.run_for(config.workload_s)
        )
        return iteration_result(
            device, experiment.name, world.trace, energy_j, iterations_from_ops(ops),
            cooldown_s, config.workload_s, config.keep_traces,
        )

    def run_fixed_work(
        self,
        device: Device,
        work_iterations: float,
        room: Optional[AmbientProfile] = None,
        chamber: Optional[Thermabox] = None,
        timeout_s: float = 7200.0,
        skip_conditioning: bool = False,
        fixed_freq_mhz: Optional[float] = None,
    ) -> IterationResult:
        """Measure energy and time to complete a fixed amount of work.

        Used by the Figure 1 (bin energy at fixed work) and Figure 2
        (ambient-temperature energy scaling) reproductions.  Warmup and
        cooldown still run unless ``skip_conditioning`` — normalizing the
        starting state matters just as much for energy comparisons.
        ``fixed_freq_mhz`` pins the clock (Figure 2 runs at a set
        frequency); ``None`` leaves the performance governor in charge.
        The result reports the time to completion, in seconds, as
        ``iterations_completed`` and a zero ``cooldown_s``.
        """
        if work_iterations <= 0:
            raise ProtocolError("work_iterations must be positive")
        config = self.config
        world = self._new_world(device, room, chamber)
        pin_frequency(device, fixed_freq_mhz)

        def workload(w: World) -> float:
            ops_target = w.ops_total + work_iterations * PI_ITERATION_OPS
            return w.run_until(
                lambda w: w.ops_total >= ops_target,
                check_every_s=max(config.dt, 1.0),
                timeout_s=timeout_s,
            )

        _, energy_j, _, duration_s = run_phases(
            world, device, config, workload, condition=not skip_conditioning
        )
        return iteration_result(
            device, f"FIXED-WORK({work_iterations:g})", world.trace, energy_j,
            duration_s, 0.0, duration_s, config.keep_traces,
        )

    # -- internals --------------------------------------------------------

    def _new_world(
        self, device: Device, room: Optional[AmbientProfile],
        chamber: Optional[Thermabox],
    ) -> World:
        """A fresh world for one pass, with the invariant suite if asked.

        The device must be powered from an energy-metered supply.
        :mod:`repro.check` is imported lazily: it depends on the runner,
        which depends on this module.
        """
        if not hasattr(device.supply, "energy_drawn_j"):
            raise ProtocolError(
                "ACCUBENCH measures energy at the supply: power the device "
                "from a MonsoonPowerMonitor or Battery (both meter energy "
                "via .energy_drawn_j)"
            )
        config = self.config
        world = World(
            device, room=room, chamber=chamber, dt=config.dt,
            trace_decimation=config.trace_decimation,
            sleep_fast_forward=config.sleep_fast_forward,
        )
        if config.check_invariants:
            from repro.check.invariants import InvariantSuite

            world.attach_observer(InvariantSuite())
        return world
