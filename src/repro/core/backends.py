"""Execution backends: in-process at one job, a shared-memory pool above.

:func:`repro.core.parallel.dispatch`, the one loop fleets, studies and
the streamed crowd share, takes its executor from :func:`backend_for`,
and the effective job count alone decides it:

:class:`InProcessBackend`
    Runs tasks sequentially in the caller's process — byte-for-byte the
    historical serial campaign loop.
:class:`SharedMemoryBackend`
    A persistent worker pool fed by a work queue.  Workers pack every
    result trace's sample rows into one ``multiprocessing.shared_memory``
    segment per task and ship only a lightweight pickled header — the
    stripped results, metric snapshot and per-trace ``(offsets,
    phases)``.  The parent attaches numpy views instead of unpickling
    copies.

Both consume tasks from an *iterable* with a bounded in-flight window —
``10^4+`` cohort tasks are never enqueued (or pickled) upfront — and
yield ``(submission_index, TaskPayload)`` in completion order.  The
contract, enforced by ``repro.check.differential``'s traced jobs
pairings, is bit-identical results (trace bytes included) for any jobs
count: a backend moves results, it never shapes them.

Segment lifetime
----------------
The worker creates a segment, detaches it from its own resource tracker
(the parent owns cleanup), copies the live trace rows in, closes its
mapping and sends the segment name.  The parent attaches, **unlinks
immediately** — so a crash never leaks a named segment past the attach —
and parks the mapping in an owner object each attached trace holds; the
memory is released when the last trace referencing it is collected (or
grows its buffer onto the heap).

Transport telemetry (published when the default registry is enabled):
``transport.pickle_bytes`` (result-side pickled bytes),
``transport.task_pickle_bytes`` (submission blobs),
``transport.shm_bytes`` (trace bytes moved by segment),
``transport.traces_attached`` (zero-copy attaches), and the
``backend.queue_depth`` gauge (in-flight window occupancy at each
scheduling step).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import traceback
from dataclasses import replace
from multiprocessing import resource_tracker, shared_memory
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.parallel import Task, TaskPayload, execute_task_payload
from repro.core.results import DeviceResult
from repro.errors import BackendError, ConfigurationError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.sim.trace import Trace

#: Tasks kept in flight beyond the worker count (prefetch depth).
PREFETCH = 2

#: How long a worker sits on an empty work queue before re-checking that
#: its parent is still alive (a SIGKILLed parent must not leave orphans).
_WORKER_POLL_S = 5.0

#: Bytes per float64 trace cell.
_ITEM_BYTES = 8


def backend_for(jobs: int) -> Backend:
    """The executor for an effective worker count: in-process at one job,
    the shared-memory pool otherwise."""
    return InProcessBackend() if jobs <= 1 else SharedMemoryBackend()


def default_window(jobs: int) -> int:
    """In-flight task window for a worker count: jobs plus prefetch."""
    return jobs + PREFETCH


class InProcessBackend:
    """Sequential execution in the caller's process.

    Tasks run on the caller's own objects (a :class:`DeviceTask`'s device
    is mutated, exactly like the historical serial loop) and there is no
    transport at all, so ``jobs`` is ignored.
    """

    def execute(
        self,
        tasks: Iterable[Task],
        jobs: int,
        collect_metrics: bool = False,
    ) -> Iterator[Tuple[int, TaskPayload]]:
        """Run tasks one by one; yield ``(submission_index, payload)``."""
        if jobs < 1:
            raise ConfigurationError("jobs must be at least 1")
        for index, task in enumerate(tasks):
            yield index, execute_task_payload(
                task, collect_metrics=collect_metrics
            )

    def close(self) -> None:
        """Nothing to release."""


# ---------------------------------------------------------------------------
# Shared-memory backend


class _SegmentOwner:
    """Keeps one attached trace block mapped until every view is gone."""

    __slots__ = ("_segment",)

    def __init__(self, segment: shared_memory.SharedMemory) -> None:
        self._segment = segment

    def __del__(self) -> None:
        try:
            self._segment.close()
        except Exception:
            # A view can outlive us inside one GC pass; the mapping is
            # reclaimed with the process either way (already unlinked).
            pass


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh segment the *parent* will own: untracked in this process.

    Python 3.13 grew ``track=False``; earlier interpreters only offer the
    private resource-tracker API, so a failure to unregister merely means
    a spurious leaked-segment warning at worker exit, never a leak (the
    parent unlinks on attach).
    """
    try:
        return shared_memory.SharedMemory(
            create=True, size=nbytes, track=False
        )
    except TypeError:
        pass
    segment = shared_memory.SharedMemory(create=True, size=nbytes)
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass
    return segment


def _attach_trace(
    channels: Tuple[str, ...],
    samples: np.ndarray,
    phases: Sequence[Any],
    open_phase: Optional[Tuple[str, float]],
    owner: Optional[_SegmentOwner],
) -> Trace:
    """Parent-side rebuild of one transported trace.

    A module-level seam on purpose: it runs in the parent (unlike the
    worker half), so the mutation smoke test can corrupt it with a plain
    monkeypatch and prove the traced jobs pairings have teeth.
    """
    return Trace.from_samples(
        channels, samples, phases=phases, open_phase=open_phase, owner=owner
    )


def _iter_traces(
    results: List[Any],
) -> Iterator[Tuple[int, int, Trace]]:
    """Every non-empty trace in a result list as (device, iteration, trace)."""
    for d, result in enumerate(results):
        if not isinstance(result, DeviceResult):
            continue
        for i, iteration in enumerate(result.iterations):
            if iteration.trace is not None and len(iteration.trace) > 0:
                yield d, i, iteration.trace


def _strip_traces(
    results: List[Any], positions: Iterable[Tuple[int, int]]
) -> List[Any]:
    """Results with the traces at ``positions`` replaced by ``None``."""
    by_device: Dict[int, List[int]] = {}
    for d, i in positions:
        by_device.setdefault(d, []).append(i)
    stripped = list(results)
    for d, indices in by_device.items():
        iterations = list(stripped[d].iterations)
        for i in indices:
            iterations[i] = replace(iterations[i], trace=None)
        stripped[d] = replace(stripped[d], iterations=tuple(iterations))
    return stripped


def _detach_traces(
    payload: TaskPayload,
) -> Tuple[TaskPayload, Optional[Dict[str, Any]]]:
    """Worker-side pack: move trace rows out of the payload into a segment.

    Returns the stripped payload plus a transport block description
    (``None`` when the payload carries no trace samples): segment name,
    total bytes, and one header per trace — ``(device, iteration,
    channels, rows, byte offset, phases, open phase)`` — everything the
    parent needs to attach views in place.
    """
    traces = list(_iter_traces(payload.results))
    if not traces:
        return payload, None
    nbytes = sum(t.samples().nbytes for _, _, t in traces)
    segment = _create_segment(nbytes)
    target = np.ndarray(
        (nbytes // _ITEM_BYTES,), dtype=np.float64, buffer=segment.buf
    )
    headers: List[Tuple[Any, ...]] = []
    offset = 0
    for d, i, trace in traces:
        rows = trace.samples()
        start = offset // _ITEM_BYTES
        target[start : start + rows.size] = rows.reshape(-1)
        headers.append(
            (
                d,
                i,
                trace.channels,
                rows.shape[0],
                offset,
                trace.phases,
                trace.open_phase,
            )
        )
        offset += rows.nbytes
    del target  # release the exported buffer before closing the map
    segment.close()
    stripped = _strip_traces(payload.results, [(d, i) for d, i, _ in traces])
    block = {"name": segment.name, "nbytes": nbytes, "headers": headers}
    return replace(payload, results=stripped), block


def _shm_worker_main(
    task_queue: Any, result_queue: Any, parent_pid: int
) -> None:
    """Worker loop: pull an envelope, run it, pack traces, send a header.

    Exits on the ``None`` sentinel, or when its parent has vanished (a
    SIGKILLed campaign must not leave orphans grinding on — the crowd
    kill/resume test runs exactly that scenario).
    """
    while True:
        try:
            envelope = task_queue.get(timeout=_WORKER_POLL_S)
        except queue.Empty:
            if os.getppid() != parent_pid:
                return
            continue
        if envelope is None:
            return
        index, blob, collect = envelope
        try:
            task = pickle.loads(blob)
            payload = execute_task_payload(task, collect_metrics=collect)
            body = pickle.dumps(
                _detach_traces(payload), protocol=pickle.HIGHEST_PROTOCOL
            )
            result_queue.put((index, "ok", body))
        except BaseException as error:  # ship it; the parent re-raises
            try:
                body = pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                body = pickle.dumps(
                    BackendError(f"{type(error).__name__}: {error}")
                )
            result_queue.put(
                (index, "error", (body, traceback.format_exc()))
            )
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                return


class SharedMemoryBackend:
    """Persistent worker pool with zero-copy trace transport.

    The pool starts on the first ``execute`` and persists between
    dispatches at the same worker count; ``close`` it when the campaign
    is done (``with SharedMemoryBackend() as backend:`` works too).
    """

    def __init__(self) -> None:
        self._context = multiprocessing.get_context()
        self._workers: List[Any] = []
        self._task_queue: Optional[Any] = None
        self._result_queue: Optional[Any] = None
        self._worker_count = 0
        self._inflight = 0

    def __enter__(self) -> "SharedMemoryBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self, jobs: int) -> None:
        if (
            self._workers
            and self._worker_count == jobs
            and all(worker.is_alive() for worker in self._workers)
        ):
            return
        self.close()
        self._task_queue = self._context.Queue()
        self._result_queue = self._context.Queue()
        self._workers = [
            self._context.Process(
                target=_shm_worker_main,
                args=(self._task_queue, self._result_queue, os.getpid()),
                daemon=True,
            )
            for _ in range(jobs)
        ]
        for worker in self._workers:
            worker.start()
        self._worker_count = jobs

    def close(self) -> None:
        """Release worker processes and unread segments (idempotent)."""
        workers, self._workers = self._workers, []
        task_queue, self._task_queue = self._task_queue, None
        result_queue, self._result_queue = self._result_queue, None
        graceful = self._inflight == 0
        self._inflight = 0
        self._worker_count = 0
        if task_queue is None:
            return
        if graceful:
            for _ in workers:
                try:
                    task_queue.put(None)
                except Exception:
                    break
            for worker in workers:
                worker.join(timeout=10.0)
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)
        # Unread completions still hold named segments; attach-and-unlink
        # each so an aborted stream leaks nothing.
        while True:
            try:
                message = result_queue.get_nowait()
            except Exception:
                break
            self._discard(message)
        for pipe in (task_queue, result_queue):
            try:
                pipe.close()
                pipe.cancel_join_thread()
            except Exception:
                pass

    def _discard(self, message: Tuple[Any, ...]) -> None:
        """Release the segment of a result nobody will read."""
        try:
            _, kind, body = message
            if kind != "ok":
                return
            _, block = pickle.loads(body)
            if block is None:
                return
            segment = shared_memory.SharedMemory(name=block["name"])
            segment.unlink()
            segment.close()
        except Exception:
            pass

    # -- dispatch -------------------------------------------------------

    def execute(
        self,
        tasks: Iterable[Task],
        jobs: int,
        collect_metrics: bool = False,
    ) -> Iterator[Tuple[int, TaskPayload]]:
        """Run tasks on ``jobs`` workers, pulling at most
        :func:`default_window` ahead of completions; yield
        ``(submission_index, payload)`` as they land."""
        if jobs < 1:
            raise ConfigurationError("jobs must be at least 1")
        window = default_window(jobs)
        self._ensure_pool(jobs)
        registry = default_registry()
        iterator = enumerate(tasks)
        exhausted = False
        try:
            while True:
                while not exhausted and self._inflight < window:
                    try:
                        index, task = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    blob = pickle.dumps(
                        task, protocol=pickle.HIGHEST_PROTOCOL
                    )
                    self._task_queue.put((index, blob, collect_metrics))
                    self._inflight += 1
                    if registry.enabled:
                        # Submissions are metered apart from results, so
                        # ``transport.pickle_bytes`` stays result-side.
                        registry.counter("transport.task_pickle_bytes").add(
                            float(len(blob))
                        )
                if registry.enabled:
                    registry.gauge("backend.queue_depth").set(self._inflight)
                if self._inflight == 0:
                    break
                yield self._receive(registry)
        finally:
            if self._inflight:
                # The consumer abandoned the stream mid-flight (an upstream
                # exception): tear the pool down so stale completions can
                # never collide with the next dispatch.
                self.close()

    def _receive(self, registry: MetricsRegistry) -> Tuple[int, TaskPayload]:
        while True:
            try:
                message = self._result_queue.get(timeout=1.0)
                break
            except queue.Empty:
                dead = [w for w in self._workers if not w.is_alive()]
                if dead:
                    codes = ", ".join(str(w.exitcode) for w in dead)
                    self.close()
                    raise BackendError(
                        f"{len(dead)} shared-memory worker(s) died "
                        f"mid-task (exit codes: {codes})"
                    )
        self._inflight -= 1
        index, kind, body = message
        if kind == "error":
            blob, text = body
            error = pickle.loads(blob)
            raise error from BackendError(f"worker traceback:\n{text}")
        payload, block = pickle.loads(body)
        if registry.enabled:
            registry.counter("transport.pickle_bytes").add(float(len(body)))
        if block is not None:
            payload = self._attach_block(payload, block, registry)
        return index, payload

    # -- attach side ----------------------------------------------------

    def _attach_block(
        self,
        payload: TaskPayload,
        block: Dict[str, Any],
        registry: MetricsRegistry,
    ) -> TaskPayload:
        nbytes = block["nbytes"]
        # Attach registers the name with the resource tracker (on every
        # interpreter we support) and unlink() unregisters it — no manual
        # tracker calls here, or the shared tracker sees a double
        # unregister and whines at exit.
        segment = shared_memory.SharedMemory(name=block["name"])
        owner = _SegmentOwner(segment)
        segment.unlink()
        flat: np.ndarray = np.ndarray(
            (nbytes // _ITEM_BYTES,), dtype=np.float64, buffer=segment.buf
        )
        results = list(payload.results)
        for d, i, channels, rows, offset, phases, open_phase in block[
            "headers"
        ]:
            columns = len(channels) + 1
            start = offset // _ITEM_BYTES
            samples = flat[start : start + rows * columns].reshape(
                rows, columns
            )
            trace = _attach_trace(channels, samples, phases, open_phase, owner)
            iterations = list(results[d].iterations)
            iterations[i] = replace(iterations[i], trace=trace)
            results[d] = replace(results[d], iterations=tuple(iterations))
        if registry.enabled:
            registry.counter("transport.shm_bytes").add(float(nbytes))
            registry.counter("transport.traces_attached").add(
                float(len(block["headers"]))
            )
        return replace(payload, results=results)


#: Either executor :func:`backend_for` returns.
Backend = Union[InProcessBackend, SharedMemoryBackend]
