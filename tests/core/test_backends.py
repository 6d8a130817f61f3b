"""Execution backends: parity, windows, transport, failures.

The headline contract (gated unconditionally, not env-gated): both
backends at every worker count produce bit-identical
:class:`DeviceResult` lists — trace sample bytes and phase annotations
included — because *where* a task ran and *how* its results travelled
must never be observable in the results.  Around that sit the plumbing
contracts: the job count alone picks the backend, lazy task iterables
are pulled through a bounded in-flight window, transport telemetry
counts what actually moved, shared-memory segments never leak (success,
abort, discard or a killed worker), and a worker exception surfaces in
the parent as itself, chained from :class:`BackendError` with the worker
traceback.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest

import repro
from repro.core.backends import (
    InProcessBackend,
    SharedMemoryBackend,
    backend_for,
    default_window,
)
from repro.core.config import AccubenchConfig
from repro.core.experiments import unconstrained
from repro.core.parallel import CrowdCohortTask, DeviceTask, run_tasks
from repro.core.runner import CampaignConfig
from repro.core.serialize import device_to_dict
from repro.device.fleet import synthetic_fleet
from repro.errors import BackendError, ConfigurationError
from repro.obs.metrics import MetricsRegistry, use_registry

MODEL = "Nexus 5"

#: Both executors, by the name each parity case is reported under.
BACKENDS = {"in-process": InProcessBackend, "shared-memory": SharedMemoryBackend}


def traced_config() -> CampaignConfig:
    config = CampaignConfig(accubench=AccubenchConfig().scaled(0.02))
    return replace(
        config, accubench=replace(config.accubench, keep_traces=True)
    )


def fleet_tasks(count: int = 4, root_seed: int = 11):
    config = traced_config()
    return [
        DeviceTask(
            device=device,
            experiment=unconstrained(),
            config=config,
            iterations=1,
        )
        for device in synthetic_fleet(MODEL, count=count, root_seed=root_seed)
    ]


def digest(results):
    """Scalar fields plus raw trace bytes — the full parity surface."""
    scalars = [
        json.dumps(device_to_dict(result), sort_keys=True)
        for result in results
    ]
    traces = [
        (
            iteration.trace.samples().tobytes(),
            iteration.trace.phases,
            iteration.trace.open_phase,
        )
        for result in results
        for iteration in result.iterations
        if iteration.trace is not None
    ]
    assert traces, "parity fixture must actually carry traces"
    return scalars, traces


@pytest.fixture(scope="module")
def reference():
    return digest(run_tasks(fleet_tasks(), jobs=1))


class TestParity:
    """Bit-identical results for either backend and any jobs count."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_results_identical_with_trace_bytes(
        self, backend, jobs, reference
    ):
        # A forced instance: shared memory at one job still runs a
        # one-worker pool with the full segment transport.
        engine = BACKENDS[backend]()
        try:
            results = run_tasks(fleet_tasks(), jobs=jobs, backend=engine)
        finally:
            engine.close()
        assert digest(results) == reference

    def test_auto_matches_explicit(self, reference):
        # The backend picked from the job count gives the forced result.
        assert digest(run_tasks(fleet_tasks(), jobs=2)) == reference

    def test_caller_owned_backend_survives_dispatches(self, reference):
        # A constructed instance is used as-is and not closed by
        # run_tasks, so one worker pool serves consecutive dispatches.
        with SharedMemoryBackend() as backend:
            first = run_tasks(fleet_tasks(), jobs=2, backend=backend)
            second = run_tasks(fleet_tasks(), jobs=2, backend=backend)
        assert digest(first) == reference
        assert digest(second) == reference


class TestWindow:
    """Lazy iterables are pulled at most a window ahead of completions."""

    def test_shared_memory_backend_bounds_drawn_tasks(self):
        tasks = fleet_tasks(count=6)
        drawn = []

        def lazy():
            for index, task in enumerate(tasks):
                drawn.append(index)
                yield task

        completed = 0
        with SharedMemoryBackend() as backend:
            for _index, _payload in backend.execute(lazy(), 2):
                completed += 1
                # At most window tasks beyond the completions consumed.
                assert len(drawn) <= completed + default_window(2)
        assert completed == len(tasks)

    def test_in_process_backend_draws_one_at_a_time(self):
        tasks = fleet_tasks(count=3)
        drawn = []

        def lazy():
            for index, task in enumerate(tasks):
                drawn.append(index)
                yield task

        completed = 0
        for _index, _payload in InProcessBackend().execute(lazy(), 1):
            completed += 1
            assert len(drawn) == completed
        assert completed == len(tasks)


class TestSegmentLifetime:
    def test_live_attached_bytes_follow_trace_lifetime(self):
        # Attached traces keep their segment mapped; once the last trace
        # viewing it is collected, the parent's mapping is closed.
        with SharedMemoryBackend() as backend:
            results = run_tasks(fleet_tasks(count=2), jobs=2, backend=backend)
            segments = {
                id(iteration.trace._owner): iteration.trace._owner._segment
                for result in results
                for iteration in result.iterations
            }
            assert segments
            assert all(segment.buf is not None for segment in segments.values())
            del results
            gc.collect()
            assert all(segment.buf is None for segment in segments.values())


class TestTransportTelemetry:
    def run_with_registry(self):
        with use_registry(MetricsRegistry(enabled=True)) as registry:
            results = run_tasks(fleet_tasks(), jobs=2)
        trace_count = sum(
            1
            for result in results
            for iteration in result.iterations
            if iteration.trace is not None and len(iteration.trace)
        )
        return registry.snapshot()["counters"], trace_count

    def test_shared_memory_attaches_instead_of_copying(self):
        counters, traces = self.run_with_registry()
        assert counters["transport.traces_attached"] == traces
        assert counters["transport.shm_bytes"] > 0
        # (The pickled-vs-shm byte *ratio* is a trace-heavy workload
        # claim; benchmarks/test_perf_backend.py asserts it at scale.)


class TestFailures:
    def test_worker_exception_propagates_as_itself(self):
        from repro.core.crowd import CrowdConfig

        # An empty cohort is rejected inside execute_cohort — in the
        # worker process — and must surface in the parent as the same
        # exception type, chained from BackendError with the traceback.
        bad = CrowdCohortTask(cohort_index=0, config=CrowdConfig(), users=())
        with pytest.raises(ConfigurationError) as info:
            run_tasks([bad, bad], jobs=2)
        assert isinstance(info.value.__cause__, BackendError)
        assert "worker traceback" in str(info.value.__cause__)

    def test_killed_worker_raises_backend_error_and_leaks_nothing(self):
        # SIGKILL one pool worker mid-task: the dispatch must end in a
        # typed BackendError with every child reaped and no segment left
        # in /dev/shm.  The task body is replaced before the pool forks
        # (the module-global seam both backends call), so the worker
        # blocks until killed.  A fresh interpreter under a hard timeout
        # turns a hang into a failure instead of a stalled suite.
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        script = textwrap.dedent(
            """
            import json, multiprocessing, os, signal, threading, time
            from repro.core import backends
            from repro.core.experiments import unconstrained
            from repro.core.parallel import DeviceTask, run_tasks
            from repro.core.runner import CampaignConfig
            from repro.device.fleet import synthetic_fleet
            from repro.errors import BackendError

            started = multiprocessing.Event()
            victim = multiprocessing.Value("i", 0)

            def blocking(task, collect_metrics=False):
                victim.value = os.getpid()
                started.set()
                time.sleep(600)

            def kill_one():
                if started.wait(60):
                    os.kill(victim.value, signal.SIGKILL)

            backends.execute_task_payload = blocking
            tasks = [
                DeviceTask(device, unconstrained(), CampaignConfig())
                for device in synthetic_fleet("Nexus 5", count=2)
            ]
            before = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
            threading.Thread(target=kill_one, daemon=True).start()
            try:
                run_tasks(tasks, jobs=2)
                error = None
            except BackendError:
                error = "BackendError"
            after = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
            print(json.dumps({
                "error": error,
                "children": [c.pid for c in multiprocessing.active_children()],
                "leaked": sorted(after - before),
            }))
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        verdict = json.loads(done.stdout.strip().splitlines()[-1])
        assert verdict == {"error": "BackendError", "children": [], "leaked": []}

    def test_abandoned_stream_tears_down_and_pool_rebuilds(self):
        # A consumer that walks away mid-stream (upstream exception)
        # must not leave stale completions to collide with the next
        # dispatch: the pool is torn down and lazily rebuilt.
        backend = SharedMemoryBackend()
        with backend:
            stream = backend.execute(iter(fleet_tasks(count=4)), 2)
            next(stream)
            stream.close()
            results = run_tasks(
                fleet_tasks(count=2), jobs=2, backend=backend
            )
        assert len(results) == 2

    def test_close_is_idempotent(self):
        backend = SharedMemoryBackend()
        list(backend.execute(iter(fleet_tasks(count=1)), 1))
        backend.close()
        backend.close()


class TestResolution:
    def test_auto_resolution(self):
        assert isinstance(backend_for(1), InProcessBackend)
        assert isinstance(backend_for(2), SharedMemoryBackend)

    def test_default_window_adds_prefetch(self):
        assert default_window(1) == 3
        assert default_window(4) == 6

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(jobs=-1)
        with pytest.raises(ConfigurationError):
            run_tasks([], jobs=0)
        for backend in BACKENDS.values():
            with pytest.raises(ConfigurationError):
                next(backend().execute(iter(fleet_tasks(count=1)), 0))
