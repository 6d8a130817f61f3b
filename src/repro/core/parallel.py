"""Parallel campaign execution.

The study design is embarrassingly parallel one level below the campaign:
devices never interact, so every (model, unit, workload) triple is an
independent work item.  Iterations within one unit are *not* independent —
thermal and mitigation state deliberately carries across the paper's
back-to-back iterations — so the unit of work is a :class:`DeviceTask`:
one unit's full iteration batch under one workload.

Determinism
-----------
Results are bit-identical to a serial run regardless of worker count:

* Every stochastic element of a device (silicon sampling, sensor noise, OS
  background activity) draws from a stream derived from
  ``(root_seed, model, serial, purpose)`` via :func:`repro.rng.derive_stream`
  — no stream is shared between units, so execution order cannot perturb
  anything.
* Devices are fully constructed in the parent process and shipped to
  workers by pickling, which round-trips generator state, thermal state and
  numpy buffers exactly.
* :func:`dispatch` hands tasks to an execution backend and consumes
  completions as they land — so the parent can merge worker telemetry and
  report progress the moment each task completes.  :func:`run_tasks`
  reassembles fleet results into a list keyed by submission index, so the
  returned order (and every value in it) is independent of which worker
  finishes first; the streamed crowd folds its cohorts in population
  order the same way.

:func:`dispatch` is the one loop every campaign runs through, and *where*
tasks run follows the effective job count alone
(:func:`repro.core.backends.backend_for`): one job — or a single task —
runs in-process, byte-for-byte the sequential campaign loop; more run on
the zero-copy shared-memory pool.  Results are bit-identical either way,
trace bytes included, a contract ``repro.check.differential``'s traced
jobs pairings gate.  ``tasks`` may be any iterable: the backend pulls
lazily, keeping a bounded in-flight window, so the crowd's cohort stream
never enqueues (or pickles) every task upfront.

Telemetry
---------
When the parent's :func:`repro.obs.default_registry` is enabled, each
worker builds its own enabled registry for the duration of its task,
snapshots it into the returned :class:`TaskPayload`, and the parent merges
the snapshot as the completion lands.  Per-task wall time goes into the
``task.wall_s`` histogram either way, and an optional ``progress``
callback receives a :class:`~repro.obs.progress.TaskProgress` per
completion — in completion order, which is the whole point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.experiments import ExperimentSpec
from repro.core.results import DeviceResult
from repro.device.phone import Device
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, default_registry, use_registry
from repro.obs.progress import ProgressCallback, TaskProgress

if TYPE_CHECKING:  # circular at runtime: runner builds tasks, tasks run a runner
    from repro.core.backends import Backend
    from repro.core.runner import CampaignConfig


@dataclass(frozen=True)
class DeviceTask:
    """One unit's full iteration batch under one workload.

    Attributes
    ----------
    device:
        The unit, fully constructed (its seeded streams included); pickled
        to the worker, so the caller's instance is never mutated when the
        task runs in a pool.
    experiment:
        The workload to run.
    config:
        Campaign configuration the worker's runner is built from.
    ambient_c / iterations / supply_voltage:
        Per-call overrides, exactly as accepted by
        :meth:`repro.core.runner.CampaignRunner.run_device`.
    """

    device: Device
    experiment: ExperimentSpec
    config: "CampaignConfig"
    ambient_c: Optional[float] = None
    iterations: Optional[int] = None
    supply_voltage: Optional[float] = None

    @property
    def result_count(self) -> int:
        return 1


@dataclass(frozen=True)
class BatchTask:
    """One batched cohort's full iteration batch, run through a BatchedWorld.

    The units advance in lock-step inside a single worker (see
    :mod:`repro.core.batch_runner`); a mixed-model task runs as
    per-model cohort blocks within that one world.  ``experiments``
    holds one workload per unit, so a study ships each model's
    UNCONSTRAINED and FIXED-FREQUENCY fleets as one cohort, each unit
    pinned to its own workload's clock.  The payload carries one
    :class:`DeviceResult` per unit, in task order; the runner maps them
    back to their fleets.  A single fleet run with several jobs is cut
    into contiguous shards (snapped to model boundaries on mixed fleets
    so cohort blocks stay whole), so flattening payloads in submission
    order reassembles the fleet ordering a serial run would produce.
    """

    devices: tuple
    experiments: tuple  # of ExperimentSpec, one per unit
    config: "CampaignConfig"
    ambient_c: Optional[float] = None
    iterations: Optional[int] = None
    supply_voltage: Optional[float] = None

    @property
    def result_count(self) -> int:
        return len(self.devices)


@dataclass(frozen=True)
class CrowdCohortTask:
    """One crowd cohort's probe + field ACCUBENCH pass, batched.

    The cohort's devices are built *inside* the worker (unit silicon and
    noise streams are keyed by serial, so construction needs no parent
    state beyond the :class:`~repro.core.crowd.UserSample` plan), keeping
    the pickled task small enough to ship a million-user campaign as
    thousands of lightweight cohort descriptions.  The payload carries a
    single :class:`~repro.core.crowd_stream.CohortResult`.
    """

    cohort_index: int
    config: Any  # CrowdConfig; untyped to keep this module import-light
    users: tuple  # of UserSample, in population order

    @property
    def result_count(self) -> int:
        return 1


#: Anything :func:`run_tasks` accepts.
Task = Union[DeviceTask, BatchTask, CrowdCohortTask]


@dataclass(frozen=True)
class TaskPayload:
    """What a worker returns: the results plus its telemetry.

    Attributes
    ----------
    results:
        The task's :class:`DeviceResult` list — one entry for a
        :class:`DeviceTask`, one per unit (in shard order) for a
        :class:`BatchTask`.  Unaffected by whether metrics were collected.
    wall_s:
        Wall-clock execution time of the task, measured in the process
        that ran it.
    metrics:
        The worker registry's snapshot (see
        :meth:`repro.obs.MetricsRegistry.snapshot`), or ``None`` when the
        parent was not collecting.
    """

    results: List[DeviceResult]
    wall_s: float
    metrics: Optional[Dict[str, Any]] = None


def execute_task_payload(
    task: "Task", collect_metrics: bool = False
) -> TaskPayload:
    """Run one task to completion (the worker-process entry point).

    With ``collect_metrics``, the task runs against a fresh enabled
    registry scoped to this call, and the payload carries its snapshot —
    the worker-side half of cross-process metric aggregation.  Collection
    never touches the simulation's random streams, so the results are
    identical either way.
    """
    started = time.perf_counter()
    if collect_metrics:
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            results = _run(task)
        snapshot = registry.snapshot()
    else:
        results = _run(task)
        snapshot = None
    return TaskPayload(
        results=results, wall_s=time.perf_counter() - started, metrics=snapshot
    )


def _run(task: "Task") -> List[DeviceResult]:
    from repro.core.runner import CampaignRunner

    if isinstance(task, CrowdCohortTask):
        from repro.core.crowd_stream import execute_cohort

        return [execute_cohort(task.config, task.cohort_index, task.users)]
    if isinstance(task, BatchTask):
        from repro.core.batch_runner import run_batch

        return run_batch(
            list(task.devices),
            task.experiments,
            task.config,
            ambient_c=task.ambient_c,
            iterations=task.iterations,
            supply_voltage=task.supply_voltage,
        )
    runner = CampaignRunner(task.config)
    return [
        runner.run_device(
            task.device,
            task.experiment,
            ambient_c=task.ambient_c,
            iterations=task.iterations,
            supply_voltage=task.supply_voltage,
        )
    ]


def dispatch(
    tasks: Iterable["Task"],
    jobs: int,
    on_payload: Callable[[int, TaskPayload], None],
    count: Optional[int] = None,
    backend: Optional["Backend"] = None,
) -> None:
    """Run tasks on one executor and hand each completion to ``on_payload``.

    The one dispatch loop every campaign (fleet, study, crowd) goes
    through.  ``jobs``, capped at ``count`` tasks when the caller knows
    it, is the effective job count that picks the executor
    (:func:`repro.core.backends.backend_for`); a caller-owned ``backend``
    is used as-is and not closed here.  Completions arrive in completion
    order as ``(submission_index, payload)``: worker metric snapshots
    merge into the parent's default registry, and ``task.wall_s`` and
    ``tasks.completed`` record each task, before ``on_payload`` sees it.
    A known ``count`` is also published as the ``tasks.total`` gauge.
    """
    from repro.core.backends import backend_for

    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1")
    registry = default_registry()
    if count is not None:
        jobs = max(1, min(jobs, count))
        if registry.enabled:
            registry.gauge("tasks.total").set(count)
    engine = backend if backend is not None else backend_for(jobs)
    try:
        for index, payload in engine.execute(
            tasks, jobs, collect_metrics=registry.enabled
        ):
            if registry.enabled:
                if payload.metrics is not None:
                    registry.merge_snapshot(payload.metrics)
                registry.histogram("task.wall_s").observe(payload.wall_s)
                registry.counter("tasks.completed").inc()
            on_payload(index, payload)
    finally:
        if backend is None:
            engine.close()


def run_tasks(
    tasks: Sequence["Task"],
    jobs: int,
    progress: Optional[ProgressCallback] = None,
    backend: Optional["Backend"] = None,
) -> List[DeviceResult]:
    """Execute tasks through :func:`dispatch`, preserving task order.

    ``jobs`` must already be resolved to a concrete positive count (the
    runner maps ``0`` to the machine's core count before calling).
    ``backend`` is the seam for reusing or forcing a pool: a caller-owned
    instance is used as-is and not closed here, so a long campaign can
    keep one worker pool across dispatches.

    ``progress`` fires per unit result in completion order, while the
    returned list stays in submission order — a :class:`BatchTask`'s
    per-unit results flatten in place of the shard.  Only each payload's
    results are retained; the payload itself (metrics snapshot included)
    is dropped as soon as it is absorbed.
    """
    offsets = [0]
    for task in tasks:
        offsets.append(offsets[-1] + task.result_count)
    total = offsets[-1]
    slots: List[List[DeviceResult]] = [[] for _ in tasks]
    completed = 0

    def absorb(index: int, payload: TaskPayload) -> None:
        nonlocal completed
        slots[index] = payload.results
        completed += offsets[index + 1] - offsets[index]
        if progress is None:
            return
        # The worker's engine-step tally rides in its metrics snapshot;
        # turn it into a per-shard rate so the progress bus can stream
        # steps/sec without anything ever touching the hot loop.
        steps_per_sec = None
        if payload.metrics is not None and payload.wall_s > 0:
            steps = payload.metrics.get("counters", {}).get("engine.steps")
            if steps:
                steps_per_sec = round(steps / payload.wall_s, 1)
        for offset, result in enumerate(payload.results):
            progress(
                TaskProgress(
                    index=offsets[index] + offset,
                    completed=completed,
                    total=total,
                    model=result.model,
                    serial=result.serial,
                    workload=result.workload,
                    wall_s=payload.wall_s,
                    steps_per_sec=steps_per_sec,
                )
            )

    dispatch(tasks, jobs, absorb, count=len(tasks), backend=backend)
    return [result for results in slots for result in results]
