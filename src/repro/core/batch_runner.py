"""Batched fleet execution: one :class:`BatchedWorld` per fleet workload.

The serial campaign path runs each unit's iteration batch through its own
:class:`~repro.sim.engine.World`.  With the exact thermal solver the
whole fleet instead advances in lock-step through
:class:`repro.sim.batch.BatchedWorld` — mixed device models grouped into
per-model cohort blocks, one batched propagation and one vectorized power
evaluation per engine step.  Only the step loop is batched: the phases
run through the protocol's own driver
(:func:`~repro.core.protocol.run_phases`, the one the serial
:class:`~repro.core.protocol.Accubench` uses), and results come from its
:func:`~repro.core.protocol.iteration_result` and tally publishers
(within the ulp-level budget of ``repro.check``'s ``BATCH_SPEC``).  With
invariants armed the batched engine's observer judges each unit with the
same checks as the serial suite.

Eligibility is decided by :func:`batch_ineligibility_reason`; only what
the batched engine genuinely cannot model (Euler integration, disabled
sleep fast-forward, several models sharing one THERMABOX run) falls back
to the serial per-unit path.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.config import AccubenchConfig
from repro.core.experiments import ExperimentSpec
from repro.core.protocol import (
    iteration_result,
    propagator_cache_counts,
    publish_instrument_tallies,
    run_phases,
)
from repro.core.results import DeviceResult, IterationResult
from repro.device.phone import Device
from repro.errors import ConfigurationError
from repro.instruments.thermabox import BatchedThermabox, ThermaboxConfig
from repro.obs.metrics import default_registry
from repro.sim.batch import BatchedWorld
from repro.soc.perf import iterations_from_ops

if TYPE_CHECKING:  # circular at runtime, exactly like repro.core.parallel
    from repro.core.runner import CampaignConfig

#: Fleets below this size default to the serial path when batching is on
#: "auto": the batched step's fixed numpy cost (tens of µs per step) only
#: amortizes across units.  At 3 units batched loses for every model; at
#: 4–5 it breaks even or wins on the Nexus 5 but still loses on RBCPR
#: SoCs (LG G5), which is why a study merges each model's workload fleets
#: into one cohort of 8–10 (EXPERIMENTS.md, "Study cohorts").
MIN_AUTO_BATCH_UNITS = 4


def batch_ineligibility_reason(
    config: "CampaignConfig", devices: Sequence[Device]
) -> Optional[str]:
    """Why this fleet cannot run batched, or ``None`` if it can.

    The answer never depends on the workload, so a cohort may hold one
    model's units under both Table II workloads.

    The reasons mirror the assumptions baked into
    :class:`~repro.sim.batch.BatchedWorld`: exact propagation (one
    (Φ, Ψ) pair per model cohort), sleep fast-forward cooldowns, and a
    chamber only around a single-model fleet.  Invariant observers, skin
    throttles, memory-bounded workloads and mixed-model fleets outside a
    THERMABOX all run batched.
    """
    bench = config.accubench
    if bench.thermal_solver != "expm":
        return "thermal_solver is not 'expm'"
    if not bench.sleep_fast_forward:
        return "sleep_fast_forward is disabled"
    if not devices:
        return "empty fleet"
    if config.use_thermabox and len({dev.spec.name for dev in devices}) > 1:
        return "mixed-model fleet in a THERMABOX"
    if any(not dev.thermal.is_exact for dev in devices):
        return "device thermal network is not exact (expm)"
    return None


def shard_bounds(fleet: Sequence[Device], jobs: int) -> List[int]:
    """Cut points slicing a batched fleet into contiguous shards.

    This is the one place a single fleet's batched task sizing is decided
    (a multi-fleet dispatch never shards: its merged per-model cohorts
    stay whole, see ``CampaignRunner._run_experiments``): at most
    ``jobs`` shards so every worker gets one, each at least
    :data:`MIN_AUTO_BATCH_UNITS` units, whatever the model mix.  Units
    are never reordered: ``fleet[bounds[i]:bounds[i+1]]`` slices
    reassemble in fleet order.
    """
    shard_count = max(1, min(jobs, len(fleet) // MIN_AUTO_BATCH_UNITS))
    return [round(i * len(fleet) / shard_count) for i in range(shard_count + 1)]


def run_batch(
    devices: Sequence[Device],
    experiments: Sequence[ExperimentSpec],
    config: "CampaignConfig",
    ambient_c: Optional[float] = None,
    iterations: Optional[int] = None,
    supply_voltage: Optional[float] = None,
) -> List[DeviceResult]:
    """Run a cohort's full iteration batch through a :class:`BatchedWorld`.

    Mirrors :meth:`CampaignRunner.run_device` over every unit at once:
    Monsoon per unit, one chamber (columnized) stabilized once, then
    ``iterations`` back-to-back warmup → cooldown → workload passes.
    ``experiments`` holds one workload per unit, so one model's
    UNCONSTRAINED and FIXED-FREQUENCY units can share a cohort.
    Returns per-unit :class:`DeviceResult`\\ s in fleet order.
    """
    from repro.core.runner import CampaignRunner

    experiments = tuple(experiments)
    if len(experiments) != len(devices):
        raise ConfigurationError("run_batch needs one experiment per unit")
    reason = batch_ineligibility_reason(config, devices)
    if reason is not None:
        raise ConfigurationError(f"fleet is not batchable: {reason}")
    runner = CampaignRunner(config)
    bench = config.accubench
    count = runner._iteration_count(iterations)
    units = len(devices)
    for device in devices:
        runner._connect_monsoon(device, supply_voltage)

    target = ambient_c if ambient_c is not None else config.ambient_c
    if config.use_thermabox:
        chamber = BatchedThermabox(
            ThermaboxConfig(target_c=target), count=units, initial_temp_c=target
        )
        room_temp = config.room_temp_c
    else:
        chamber = None
        room_temp = target

    registry = default_registry()
    cache_before = propagator_cache_counts(devices)

    results: List[List[IterationResult]] = [[] for _ in range(units)]
    started_wall = time.perf_counter()
    looped_total = 0
    with registry.span(
        "run_batch",
        model="+".join(sorted({dev.spec.name for dev in devices})),
        units=units,
        workload="+".join(sorted({exp.name for exp in experiments})),
        iterations=count,
    ):
        if chamber is not None:
            chamber.wait_until_stable(config.room_temp_c)
        world = BatchedWorld(
            devices,
            room_temp_c=room_temp,
            chamber=chamber,
            dt=bench.dt,
            trace_decimation=bench.trace_decimation,
            check_invariants=bench.check_invariants,
            labels=[
                f"{device.serial} ({experiment.name})"
                for device, experiment in zip(devices, experiments)
            ],
        )
        for iteration in range(count):
            cooldown_s, energy_j, completed = run_batch_iteration(
                world, bench, experiments
            )
            looped_total += int(world.looped_steps.sum())
            if registry.enabled:
                # Iteration-boundary cursor for the live /status endpoint:
                # a long multi-iteration shard shows movement between
                # shard completions without the hot loop being touched.
                registry.gauge("batch.iterations_done").set(iteration + 1)
                elapsed = time.perf_counter() - started_wall
                if elapsed > 0:
                    registry.gauge("batch.steps_per_sec").set(
                        looped_total / elapsed
                    )

            for i, device in enumerate(devices):
                results[i].append(iteration_result(
                    device, experiments[i].name, world.traces[i],
                    float(energy_j[i]),
                    iterations_from_ops(float(completed[i])), float(cooldown_s[i]),
                    bench.workload_s, bench.keep_traces,
                ))
        world.finalize()
    publish_instrument_tallies(registry, devices, cache_before, chamber)
    if registry.enabled:
        registry.gauge("batch.size").set(world.count)
        registry.counter("batch.cohort_splits").add(world.cohort_splits)
        wall_s = time.perf_counter() - started_wall
        if wall_s > 0:
            registry.gauge("batch.steps_per_sec").set(looped_total / wall_s)
    return [
        DeviceResult(
            model=device.spec.name,
            serial=device.serial,
            workload=experiments[i].name,
            iterations=tuple(results[i]),
        )
        for i, device in enumerate(devices)
    ]


def run_batch_iteration(
    world: BatchedWorld,
    bench: AccubenchConfig,
    experiments: Sequence[ExperimentSpec],
):
    """One warmup → cooldown → workload pass over an existing batched world.

    Resets the world's per-iteration state and pins each unit's clock to
    its experiment (one per unit, fleet order), then runs the protocol's
    own :func:`run_phases`; shared by
    the campaign fleet runner above and the streaming crowd engine
    (:mod:`repro.core.crowd_stream`).  Returns per-unit
    ``(cooldown_s, energy_j, completed_ops)`` arrays; traces for the
    iteration are left on ``world.traces``.
    """
    world.begin_iteration()
    world.pin_frequencies([exp.fixed_freq_mhz for exp in experiments])
    cooldown_s, energy_j, completed, _ = run_phases(
        world, world, bench, lambda w: w.run_for(bench.workload_s)
    )
    return cooldown_s, energy_j, completed
