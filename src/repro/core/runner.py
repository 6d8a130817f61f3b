"""Campaign runner: the paper's full study design, automated.

For each unit: power it from a Monsoon at the methodology's voltage,
stabilize the THERMABOX, then run ≥5 back-to-back ACCUBENCH iterations.
For each model: do that for every unit under both workloads.  This is the
automation loop the paper describes at the end of Section III ("the app
first communicates with the THERMABOX and confirms that it is within the
target temperature range...").
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batch_runner import (
    MIN_AUTO_BATCH_UNITS,
    batch_ineligibility_reason,
    shard_bounds,
)
from repro.core.config import AccubenchConfig
from repro.core.experiments import ExperimentSpec, fixed_frequency, unconstrained
from repro.core.parallel import BatchTask, DeviceTask, Task, run_tasks
from repro.core.protocol import (
    Accubench,
    propagator_cache_counts,
    publish_instrument_tallies,
)
from repro.core.results import DeviceResult, ExperimentResult
from repro.device.catalog import DeviceSpec
from repro.device.fleet import paper_fleet
from repro.device.phone import Device
from repro.errors import ConfigurationError
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.thermabox import Thermabox, ThermaboxConfig
from repro.obs.metrics import default_registry
from repro.obs.progress import ProgressCallback
from repro.rng import DEFAULT_ROOT_SEED
from repro.thermal.ambient import AmbientProfile, ConstantAmbient
from repro.units import PAPER_AMBIENT_C, require_finite


@dataclass(frozen=True)
class CampaignConfig:
    """Study-level configuration.

    Attributes
    ----------
    accubench:
        The protocol parameters (durations, iteration count, dt).
    ambient_c:
        THERMABOX setpoint (the paper's 26 °C).
    room_temp_c:
        Temperature of the room the chamber sits in.
    use_thermabox:
        Whether devices run inside a regulated chamber.  Turning this off
        is the ablation that shows why the chamber exists.
    monsoon_voltage:
        Main-channel voltage, or ``None`` to choose per device: the
        battery's nominal voltage, except on models with an input-voltage
        throttle where the battery's max voltage is used (the paper's
        LG G5 lesson, Figure 10).
    root_seed:
        Seed for all stochastic elements.
    jobs:
        Worker processes for fleet/study execution: ``1`` (default) runs
        the classic serial loop, ``N > 1`` fans independent units out over
        a worker pool, ``0`` means "all cores".  Values above the
        machine's core count are clamped at resolution time (a per-call
        ``jobs`` override is honored as given).  Results are identical
        regardless (see :mod:`repro.core.parallel`).
    """

    accubench: AccubenchConfig = field(default_factory=AccubenchConfig)
    ambient_c: float = PAPER_AMBIENT_C
    room_temp_c: float = 23.0
    use_thermabox: bool = True
    monsoon_voltage: Optional[float] = None
    root_seed: int = DEFAULT_ROOT_SEED
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ConfigurationError("jobs must be non-negative (0 = all cores)")
        require_finite(
            "CampaignConfig",
            ambient_c=self.ambient_c,
            room_temp_c=self.room_temp_c,
        )
        if self.ambient_c < 0 or self.room_temp_c < 0:
            raise ConfigurationError(
                "ambient_c and room_temp_c must not be negative"
            )
        if self.monsoon_voltage is not None:
            require_finite(
                "CampaignConfig", monsoon_voltage=self.monsoon_voltage
            )
            if self.monsoon_voltage <= 0:
                raise ConfigurationError("monsoon_voltage must be positive")


class CampaignRunner:
    """Runs experiments over units, fleets and the whole study.

    Which engine runs a fleet follows the fleet alone: an eligible fleet
    of at least :data:`~repro.core.batch_runner.MIN_AUTO_BATCH_UNITS`
    units advances in lock-step through the batched engine, every other
    fleet runs one serial world per unit (:meth:`_batches`).  No option
    selects the engine; only the oracles in
    :mod:`repro.check.differential` force one.

    ``progress`` (optional) is called with a
    :class:`~repro.obs.progress.TaskProgress` as each unit's iteration
    batch completes — live, in completion order, for any ``jobs`` value.
    Telemetry (phase spans, engine counters, per-task wall times) is
    published to :func:`repro.obs.default_registry` whenever an enabled
    registry is installed; see ``docs/observability.md``.
    """

    def __init__(
        self,
        config: Optional[CampaignConfig] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.config = config if config is not None else CampaignConfig()
        self.progress = progress
        self._protocol = Accubench(self.config.accubench)

    def monsoon_voltage_for(self, spec: DeviceSpec) -> float:
        """The supply voltage the methodology uses for a device model."""
        if self.config.monsoon_voltage is not None:
            return self.config.monsoon_voltage
        if spec.voltage_throttle is not None:
            return spec.battery.max_v
        return spec.battery.nominal_v

    def _connect_monsoon(self, device: Device) -> None:
        """Power a unit from its Monsoon at the methodology's voltage."""
        voltage = self.monsoon_voltage_for(device.spec)
        device.connect_supply(MonsoonPowerMonitor(voltage))

    def run_device(self, device: Device, experiment: ExperimentSpec) -> DeviceResult:
        """Run one experiment (``accubench.iterations`` passes) on one unit."""
        count = self.config.accubench.iterations
        self._connect_monsoon(device)
        room, chamber = self._environment()
        registry = default_registry()
        cache_before = propagator_cache_counts([device])
        with registry.span(
            "run_device",
            model=device.spec.name,
            serial=device.serial,
            workload=experiment.name,
            iterations=count,
        ):
            if chamber is not None:
                chamber.wait_until_stable(self.config.room_temp_c)
            results = tuple(
                self._protocol.run_iteration(
                    device, experiment, room=room, chamber=chamber
                )
                for _ in range(count)
            )
        publish_instrument_tallies(registry, [device], cache_before, chamber)
        return DeviceResult(
            model=device.spec.name,
            serial=device.serial,
            workload=experiment.name,
            iterations=results,
        )

    def run_fleet(
        self,
        model: str,
        experiment: ExperimentSpec,
        devices: Optional[Sequence[Device]] = None,
        iterations: Optional[int] = None,
        jobs: Optional[int] = None,
    ) -> ExperimentResult:
        """Run one experiment across a fleet (the paper's units by default).

        ``iterations`` and ``jobs`` override :attr:`AccubenchConfig.iterations`
        and :attr:`CampaignConfig.jobs` for this call; units are
        independent, so any worker count yields identical results.
        Every path goes through :func:`repro.core.parallel.run_tasks` —
        with one job the tasks run in-process on the caller's device
        objects (the historical serial loop), and either way per-task
        telemetry and progress events are emitted uniformly.
        """
        resolved = self._resolve_jobs(jobs)
        config = self.config
        if iterations is not None:
            config = replace(
                config, accubench=replace(config.accubench, iterations=iterations)
            )
        fleet = self._build_fleet(model, devices)
        tasks = self._fleet_tasks(fleet, experiment, resolved, config)
        results = tuple(run_tasks(tasks, resolved, progress=self.progress))
        return ExperimentResult(model=model, workload=experiment.name, devices=results)

    def run_model(
        self, model: str, jobs: Optional[int] = None
    ) -> Tuple[ExperimentResult, ExperimentResult]:
        """Both workloads on one model's paper fleet:
        (UNCONSTRAINED, FIXED-FREQUENCY) — a one-model :meth:`run_study`.

        The two workloads run on separately built fleets, and all units
        of both go out in one dispatch.
        """
        return self.run_study([model], jobs)[model]

    def run_study(
        self,
        models: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
    ) -> Dict[str, Tuple[ExperimentResult, ExperimentResult]]:
        """The whole Table II study: every model, both workloads.

        Every (model, unit, workload) in the study is one work item in a
        single dispatch.
        """
        from repro.device.catalog import DEVICE_NAMES, device_spec as lookup

        chosen = list(models) if models is not None else list(DEVICE_NAMES)
        plan = []
        for model in chosen:
            device = lookup(model)
            plan.append((model, unconstrained()))
            plan.append((model, fixed_frequency(device)))
        experiments = self._run_experiments(plan, self._resolve_jobs(jobs))
        return {
            model: (experiments[2 * i], experiments[2 * i + 1])
            for i, model in enumerate(chosen)
        }

    # -- internals --------------------------------------------------------

    def _resolve_jobs(self, jobs: Optional[int]) -> int:
        """Resolve a per-call override against the config; 0 = all cores.

        "All cores" are the cores this process may run on (its CPU
        affinity, narrowed by ``taskset`` or a cpuset); the config-supplied
        default is clamped to them — spawning a 4-worker pool on a 1-core box only adds pickling
        overhead (and once produced a <1x "speedup" in the recorded
        benchmarks).  An explicit per-call ``jobs`` is honored as given so
        callers (and tests) can force the pool path deliberately.
        """
        explicit = jobs is not None
        value = jobs if explicit else self.config.jobs
        if value < 0:
            raise ConfigurationError("jobs must be non-negative (0 = all cores)")
        affinity = getattr(os, "sched_getaffinity", None)
        cores = len(affinity(0)) if affinity else os.cpu_count() or 1
        if value == 0:
            return cores
        return value if explicit else min(value, cores)

    def _build_fleet(
        self, model: str, devices: Optional[Sequence[Device]] = None
    ) -> List[Device]:
        if devices is not None:
            return list(devices)
        return paper_fleet(
            model,
            root_seed=self.config.root_seed,
            initial_temp_c=self.config.ambient_c,
            thermal_solver=self.config.accubench.thermal_solver,
        )

    def _batches(self, fleet: Sequence[Device]) -> bool:
        """Whether one fleet runs batched: it is eligible and has at least
        ``MIN_AUTO_BATCH_UNITS`` units.

        Every other fleet runs the serial per-unit path — the engine is a
        performance choice, never a correctness one.
        """
        return (
            len(fleet) >= MIN_AUTO_BATCH_UNITS
            and batch_ineligibility_reason(self.config, fleet) is None
        )

    def _device_tasks(
        self,
        fleet: Sequence[Device],
        experiment: ExperimentSpec,
        config: CampaignConfig,
    ) -> List[Task]:
        return [DeviceTask(device, experiment, config) for device in fleet]

    def _fleet_tasks(
        self,
        fleet: Sequence[Device],
        experiment: ExperimentSpec,
        jobs: int,
        config: CampaignConfig,
    ) -> List[Task]:
        """Shape one fleet into work items: batched shards or per-unit tasks.

        Batched fleets are cut into shards by
        :func:`repro.core.batch_runner.shard_bounds` — the single home of
        the batched task-sizing policy (at most ``jobs`` shards, each of
        at least ``MIN_AUTO_BATCH_UNITS`` units); units are never
        reordered, so results still come back in fleet order.
        """
        if not self._batches(fleet):
            return self._device_tasks(fleet, experiment, config)
        bounds = shard_bounds(fleet, jobs)
        return [
            BatchTask(
                devices=tuple(fleet[start:stop]),
                experiments=(experiment,) * (stop - start),
                config=config,
            )
            for start, stop in zip(bounds, bounds[1:])
            if stop > start
        ]

    def _run_experiments(
        self, plan: Sequence[Tuple[str, ExperimentSpec]], jobs: int
    ) -> List[ExperimentResult]:
        """Run several (model, experiment) fleets through one dispatch.

        Which fleets batch is decided per fleet (:meth:`_batches`), but a
        model's batched fleets ship together: one :class:`BatchTask` per
        model, its workloads' units in one cohort, so the batched step's
        fixed cost is paid once for all of them.  ``jobs`` never cuts
        these cohorts, so the tasks, and the results, are the same at any
        job count.  In a study the other tasks keep the workers busy; for
        one model at two jobs the single merged cohort measured no slower
        than two per-workload cohorts on two workers (EXPERIMENTS.md,
        "Study cohorts").  Per-unit tasks run everything else;
        per-experiment results are reassembled in plan order.
        """
        fleets = [self._build_fleet(model) for model, _ in plan]
        cohorts: Dict[str, List[int]] = {}
        for index, ((model, _), fleet) in enumerate(zip(plan, fleets)):
            if self._batches(fleet):
                cohorts.setdefault(model, []).append(index)
        tasks: List[Task] = []
        starts = [0] * len(plan)  # each fleet's first flattened result
        cursor = 0
        for index, (model, experiment) in enumerate(plan):
            members = cohorts.get(model, ())
            if index not in members:
                starts[index] = cursor
                tasks.extend(
                    self._device_tasks(fleets[index], experiment, self.config)
                )
                cursor += len(fleets[index])
            elif index == members[0]:
                devices: List[Device] = []
                experiments: List[ExperimentSpec] = []
                for member in members:
                    starts[member] = cursor + len(devices)
                    devices.extend(fleets[member])
                    experiments.extend([plan[member][1]] * len(fleets[member]))
                tasks.append(BatchTask(
                    devices=tuple(devices),
                    experiments=tuple(experiments),
                    config=self.config,
                ))
                cursor += len(devices)
        results = run_tasks(tasks, jobs, progress=self.progress)
        return [
            ExperimentResult(
                model=model,
                workload=experiment.name,
                devices=tuple(
                    results[starts[index] : starts[index] + len(fleets[index])]
                ),
            )
            for index, (model, experiment) in enumerate(plan)
        ]

    def _environment(self) -> Tuple[AmbientProfile, Optional[Thermabox]]:
        target = self.config.ambient_c
        if not self.config.use_thermabox:
            return ConstantAmbient(target), None
        chamber = Thermabox(
            ThermaboxConfig(target_c=target), initial_temp_c=target
        )
        return ConstantAmbient(self.config.room_temp_c), chamber
