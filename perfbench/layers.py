"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each layer at class (or
module) level before the program builds any objects.  Worker processes are
forked from the benchmark process, so they inherit the wrappers.

Two kinds of wrapper exist:

* *hot* wrappers (per engine step: ``Device.step``, ``Soc.step``,
  ``ThermalNetwork.step_vector`` ...) keep only tallies — calls, inclusive
  seconds and self seconds — in process-local dicts;
* *coarse* wrappers (engine runs, batch phases, cohorts, checkpoints, pool
  starts) also record a span: name, start, end, parent.

Self time is inclusive time minus the time covered by wrapped children,
computed with a per-process stack of child-time accumulators.  Tallies and
spans are flushed at task boundaries into the program's own metrics
registry (``TaskPayload.metrics``), so worker figures travel back to the
parent the same way the program's own telemetry does.  Spans stay in memory
until the run ends.

:class:`DispatchClock` is the one hook that is installed in untraced runs
too: it records when the first task dispatch starts, which ends set-up.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import resource
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

PREFIX = "perfbench."


class _Patcher:
    """Replaces attributes and remembers the originals for restoring."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class DispatchClock:
    """Marks the first task dispatch: the end of set-up.

    Records the monotonic time and the CPU usage of this process and its
    reaped children at the moment the first ``ExecutionBackend.execute``
    generator starts running.
    """

    def __init__(self) -> None:
        self.started: Optional[float] = None
        self.cpu_at_start = 0.0
        self._patcher = _Patcher()

    def install(self) -> None:
        """Hook the backends the workloads resolve to: in-process at one
        job, the shared-memory pool at more."""
        from repro.core.backends import InProcessBackend, SharedMemoryBackend

        for cls in (InProcessBackend, SharedMemoryBackend):
            self._patcher.patch(cls, "execute", self._wrap)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, execute):
        clock = self

        @functools.wraps(execute)
        def wrapper(backend, *args, **kwargs):
            if clock.started is None:
                clock.started = time.monotonic()
                clock.cpu_at_start = cpu_seconds()
            yield from execute(backend, *args, **kwargs)

        return wrapper


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """Class-level wrappers, process-local tallies and in-memory spans."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.calls: Dict[str, int] = {}
        self.incl: Dict[str, float] = {}
        self.own: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}
        self.spans: List[Dict[str, Any]] = []
        self._children: List[float] = []
        self._open: List[Tuple[int, str]] = []
        self._next_id = 0
        self._engine_depth = 0
        self._patcher = _Patcher()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point; call once per instance."""
        from repro.core import backends, batch_runner, crowd_stream
        from repro.core.crowd_stream import CrowdEstimators
        from repro.device.phone import Device
        from repro.instruments.monsoon import MonsoonPowerMonitor
        from repro.instruments.thermabox import BatchedThermabox, Thermabox
        from repro.sim.batch import BatchedWorld
        from repro.sim.engine import World
        from repro.sim.trace import Trace
        from repro.soc.instance import Soc
        from repro.thermal.network import ThermalNetwork
        from repro.thermal.propagator import ExpmPropagator

        patch = self._patcher.patch
        hot = [
            (Device, "step"),
            (Soc, "step"),
            (ThermalNetwork, "step_vector"),
            (ExpmPropagator, "advance_batch"),
            (Thermabox, "step"),
            (Thermabox, "run_for"),
            (BatchedThermabox, "step_masked"),
            (MonsoonPowerMonitor, "draw"),
            (Trace, "append"),
            (CrowdEstimators, "fold"),
        ]
        for owner, name in hot:
            patch(owner, name, self._timed(f"{owner.__name__}.{name}"))
        for name in ("run_for", "run_until"):
            patch(World, name, self._timed(f"World.{name}", span=True,
                                           hook=self._engine_hook))
        for name in ("run_for", "run_cooldown", "run_asleep"):
            patch(BatchedWorld, name,
                  self._timed(f"BatchedWorld.{name}", span=True))
        patch(BatchedWorld, "finalize", self._timed(
            "BatchedWorld.finalize", span=True, hook=self._splits_hook))
        iteration = self._timed("run_batch_iteration", span=True)
        patch(batch_runner, "run_batch_iteration", iteration)
        patch(crowd_stream, "run_batch_iteration", iteration)
        patch(crowd_stream, "execute_cohort",
              self._timed("execute_cohort", span=True))
        patch(crowd_stream, "write_checkpoint", self._timed(
            "write_checkpoint", span=True, hook=self._checkpoint_hook))

        # The in-process backend moves nothing between processes, so only
        # the shared-memory pool is a transport layer.
        pool = backends.SharedMemoryBackend
        patch(pool, "execute", self._dispatch)
        patch(pool, "_ensure_pool", self._timed(
            "SharedMemoryBackend.start", span=True, hook=self._pool_hook))
        # Both backends run a task through this module-level name.
        patch(backends, "execute_task_payload", self._task_boundary)

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original."""
        self._patcher.restore()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, key: str, span: bool = False, hook=None):
        """A factory wrapping one callable with tallies (and a span)."""
        tracer = self
        calls, incl, own = self.calls, self.incl, self.own
        children = self._children
        perf = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = hook(True, args, kwargs, None) if hook else None
                if span:
                    span_id = tracer._open_span(key)
                children.append(0.0)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stop = perf()
                    elapsed = stop - start
                    child = children.pop()
                    calls[key] = calls.get(key, 0) + 1
                    incl[key] = incl.get(key, 0.0) + elapsed
                    own[key] = own.get(key, 0.0) + max(0.0, elapsed - child)
                    if children:
                        children[-1] += elapsed
                    if span:
                        tracer._close_span(span_id, key, start, stop)
                    if hook:
                        hook(False, args, kwargs, state)

            return wrapper

        return make

    def _open_span(self, name: str) -> int:
        self._next_id += 1
        self._open.append((self._next_id, name))
        return self._next_id

    def _close_span(self, span_id: int, name: str, start: float, stop: float) -> None:
        self._open.pop()
        parent_id, parent = self._open[-1] if self._open else (None, None)
        self.spans.append({
            "name": PREFIX + name,
            "wall_start_s": start,
            "wall_stop_s": stop,
            "parent": PREFIX + parent if parent else None,
            "detail": {"pid": os.getpid(), "id": span_id,
                       "parent_id": parent_id},
        })

    def _add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def _engine_hook(self, entering, args, kwargs, state):
        """Steps advanced by the serial engine, counted at the outermost call."""
        world = args[0]
        if entering:
            self._engine_depth += 1
            return world.clock.steps, world.fast_forward_steps
        self._engine_depth -= 1
        if self._engine_depth == 0:
            steps, fast = state
            self._add("engine.steps", world.clock.steps - steps)
            self._add("engine.ff_steps", world.fast_forward_steps - fast)
        return None

    def _splits_hook(self, entering, args, kwargs, state):
        if not entering:
            self._add("batch.cohort_splits", args[0].cohort_splits)

    def _checkpoint_hook(self, entering, args, kwargs, state):
        if not entering:
            path = args[0] if args else kwargs["path"]
            self._add("checkpoint.bytes", os.path.getsize(path))

    def _pool_hook(self, entering, args, kwargs, state):
        backend = args[0]
        if entering:
            return backend._workers
        if backend._workers is not state:
            self._add("backends.starts", 1)
        return None

    def _dispatch(self, execute):
        """Pool dispatch: parent wait, absorb, worker busy time, utilization."""
        tracer = self
        perf = time.perf_counter

        @functools.wraps(execute)
        def wrapper(backend, tasks, jobs, *args, **kwargs):
            began = perf()
            stream = execute(backend, tasks, jobs, *args, **kwargs)
            try:
                while True:
                    waited = perf()
                    try:
                        index, payload = next(stream)
                    except StopIteration:
                        tracer._add("parallel.wait_s", perf() - waited)
                        break
                    arrived = perf()
                    tracer._add("parallel.wait_s", arrived - waited)
                    tracer._add("backends.busy_s", payload.wall_s)
                    yield index, payload
                    tracer._add("parallel.absorb_s", perf() - arrived)
            finally:
                stream.close()
                tracer._add("backends.capacity_s", jobs * (perf() - began))

        return wrapper

    def _task_boundary(self, execute_task_payload):
        """Flush tallies into the task's metrics snapshot as it completes."""
        tracer = self

        @functools.wraps(execute_task_payload)
        def wrapper(task, collect_metrics=False):
            if os.getpid() != tracer.main_pid:
                tracer.reset(worker=True)  # inherited from the parent at fork
            payload = execute_task_payload(task, collect_metrics)
            if payload.metrics is None:
                return payload
            from repro.obs.metrics import MetricsRegistry

            merged = MetricsRegistry(enabled=True)
            merged.merge_snapshot(payload.metrics)
            merged.merge_snapshot(tracer.take())
            return dataclasses.replace(payload, metrics=merged.snapshot())

        return wrapper

    # -- harvesting -------------------------------------------------------

    def take(self) -> Dict[str, Any]:
        """Tallies and spans so far as a metrics snapshot; then reset."""
        from repro.obs.metrics import METRICS_FORMAT

        counters: Dict[str, float] = {}
        for key, count in self.calls.items():
            counters[f"{PREFIX}{key}.calls"] = float(count)
            counters[f"{PREFIX}{key}.incl_s"] = self.incl[key]
            counters[f"{PREFIX}{key}.self_s"] = self.own[key]
        for key, value in self.extra.items():
            counters[PREFIX + key] = float(value)
        document = {"format": METRICS_FORMAT, "counters": counters,
                    "spans": list(self.spans)}
        self.reset()
        return document

    def reset(self, worker: bool = False) -> None:
        """Drop tallies and finished spans; in a worker, open ones too."""
        self.calls.clear()
        self.incl.clear()
        self.own.clear()
        self.extra.clear()
        self.spans.clear()
        if worker:
            self._children.clear()
            self._open.clear()
            self._engine_depth = 0


def layer_metrics(snapshot: Dict[str, Any], worker_rss_mb: float) -> Dict[str, float]:
    """Derive the per-layer metrics from a traced run's merged registry.

    ``sim.engine.us_per_step``, ``core.crowd_stream.dropped``,
    ``host.probe_s`` and ``trace.overhead_pct`` need untraced runs or the
    workload's outputs, so ``run.py`` adds them.
    """
    counters = snapshot.get("counters", {})

    def count(name: str) -> float:
        return float(counters.get(name, 0.0))

    def tally(key: str, kind: str) -> float:
        return count(f"{PREFIX}{key}.{kind}")

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def phase(name: str) -> float:
        return sum(
            span["wall_s"] for span in snapshot.get("spans", [])
            if span["name"] == name
        )

    steps = count(PREFIX + "engine.steps")
    hits = count("propagator.cache_hits")
    misses = count("propagator.cache_misses")
    busy = count(PREFIX + "backends.busy_s")
    return {
        "sim.engine.steps": steps,
        "sim.engine.ff_share": ratio(count(PREFIX + "engine.ff_steps"), steps),
        "sim.engine.self_s": tally("World.run_for", "self_s")
        + tally("World.run_until", "self_s"),
        "device.step_self_s": tally("Device.step", "self_s"),
        "soc.step_s": tally("Soc.step", "incl_s"),
        "soc.calls": tally("Soc.step", "calls"),
        "thermal.network.step_s": tally("ThermalNetwork.step_vector", "incl_s"),
        "thermal.network.calls": tally("ThermalNetwork.step_vector", "calls"),
        "thermal.propagator.batch_s": tally(
            "ExpmPropagator.advance_batch", "incl_s"),
        "thermal.propagator.miss_share": ratio(misses, hits + misses),
        "instruments.thermabox_s": tally("Thermabox.step", "self_s")
        + tally("Thermabox.run_for", "self_s")
        + tally("BatchedThermabox.step_masked", "self_s"),
        "instruments.supply_s": tally("MonsoonPowerMonitor.draw", "incl_s"),
        "sim.trace.append_s": tally("Trace.append", "incl_s"),
        "sim.trace.rows": tally("Trace.append", "calls"),
        "sim.batch.run_for_s": tally("BatchedWorld.run_for", "incl_s"),
        "sim.batch.cooldown_s": tally("BatchedWorld.run_cooldown", "incl_s"),
        "sim.batch.asleep_s": tally("BatchedWorld.run_asleep", "incl_s"),
        "sim.batch.finalize_s": tally("BatchedWorld.finalize", "incl_s"),
        "sim.batch.cohort_splits": count(PREFIX + "batch.cohort_splits"),
        "core.protocol.warmup_s": phase("phase.warmup"),
        "core.protocol.cooldown_s": phase("phase.cooldown"),
        "core.protocol.workload_s": phase("phase.workload"),
        "core.batch_runner.iteration_s": tally("run_batch_iteration", "incl_s"),
        "core.backends.start_s": tally("SharedMemoryBackend.start", "incl_s"),
        "core.backends.starts": count(PREFIX + "backends.starts"),
        "core.parallel.wait_s": count(PREFIX + "parallel.wait_s"),
        "core.parallel.absorb_s": count(PREFIX + "parallel.absorb_s"),
        "core.backends.worker_busy_s": busy,
        "core.backends.worker_util": ratio(
            busy, count(PREFIX + "backends.capacity_s")),
        "core.backends.result_pickle_bytes": count("transport.pickle_bytes"),
        "core.backends.task_pickle_bytes": count("transport.task_pickle_bytes"),
        "core.backends.shm_bytes": count("transport.shm_bytes"),
        "core.backends.traces_attached": count("transport.traces_attached"),
        "core.backends.worker_rss_mb": worker_rss_mb,
        "core.crowd_stream.cohort_s": tally("execute_cohort", "incl_s"),
        "core.crowd_stream.fold_s": tally("CrowdEstimators.fold", "incl_s"),
        "core.crowd_stream.checkpoint_s": tally("write_checkpoint", "incl_s"),
        "core.crowd_stream.checkpoint_bytes": count(
            PREFIX + "checkpoint.bytes"),
        "core.crowd_stream.checkpoint_writes": tally(
            "write_checkpoint", "calls"),
    }
