"""Execution backend transport: zero-copy shared memory vs pickling.

Measures the claim of :mod:`repro.core.backends`: on a trace-heavy fleet
campaign the shared-memory pool must move trace sample blocks through
named segments the parent *attaches* instead of pickled copies it must
deserialize, without changing a single byte of the results.  Three
benches:

* end-to-end ``run_fleet`` A/B on a 32-unit traced fleet
  (``keep_traces=True``, ``trace_decimation=1``), interleaved
  in-process (``jobs=1``) vs shared-memory (``jobs=2``) arms, best-of
  per arm.  Result parity — scalar fields *and* raw trace bytes — gates
  unconditionally; the wall times and their ratio are recorded, not
  gated.
* transport byte accounting at ``jobs=2``: the pickled size of the same
  tasks' payloads, run in-process and pickled whole (what a pickling
  transport would ship), must be at least 10x the shared-memory pool's
  result-side ``transport.pickle_bytes``, and the segment bytes must
  equal the trace payload exactly.  Byte counts are deterministic —
  this gate is unconditional, host speed never excuses it.
* crowd memory flatness: 4x the users through the streamed crowd on the
  shared-memory pool at ``jobs=2`` must keep the parent's traced peak
  flat — eager payload release keeps the stream O(cohort), not
  O(users), even with a worker pool shipping results back.

Results land in ``BENCH_backend.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import pickle
import time
import tracemalloc

from benchmarks.test_perf_campaign import _merge_results
from repro.core.backends import InProcessBackend
from repro.core.config import AccubenchConfig
from repro.core.crowd_stream import run_streaming_crowd_study
from repro.core.experiments import unconstrained
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.core.serialize import device_to_dict
from repro.check.differential import default_crowd_differential_config
from repro.device.fleet import synthetic_fleet
from repro.obs import MetricsRegistry, use_registry

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_backend.json"
)

MODEL = "Nexus 5"
FLEET_N = 32
SCALE = 0.3
JOBS = 2
REPEATS = 3
#: Each arm's job count; the job count alone picks the backend.
ARMS = {"in-process": 1, "shared-memory": JOBS}
MIN_PICKLE_REDUCTION = 10.0
MEMORY_USERS = (1024, 4096)
MEMORY_COHORT = 256


def _config() -> CampaignConfig:
    accubench = AccubenchConfig(
        thermal_solver="expm",
        iterations=1,
        batch=True,
        keep_traces=True,
        trace_decimation=1,
    ).scaled(SCALE)
    return CampaignConfig(accubench=accubench, root_seed=7)


def _fleet():
    return synthetic_fleet(MODEL, FLEET_N, root_seed=7)


def _run(jobs: int):
    """One traced fleet campaign; returns (wall seconds, result)."""
    runner = CampaignRunner(_config())
    fleet = _fleet()
    start = time.perf_counter()
    result = runner.run_fleet(
        MODEL, unconstrained(), devices=fleet, iterations=1, jobs=jobs
    )
    return time.perf_counter() - start, result


def _digest(result):
    """Full parity surface: scalar fields plus raw trace bytes."""
    scalars = [
        json.dumps(device_to_dict(device), sort_keys=True)
        for device in result.devices
    ]
    traces = [
        (
            iteration.trace.samples().tobytes(),
            iteration.trace.phases,
            iteration.trace.open_phase,
        )
        for device in result.devices
        for iteration in device.iterations
        if iteration.trace is not None
    ]
    assert traces, "transport bench fixture must actually carry traces"
    return scalars, traces


def _trace_payload_bytes(result) -> int:
    return sum(
        iteration.trace.samples().nbytes
        for device in result.devices
        for iteration in device.iterations
        if iteration.trace is not None
    )


def test_backend_fleet_speedup():
    # Interleaved A/B so host-load drift cancels; best-of per arm.  Both
    # arms run the identical campaign, so wall-clock is comparable.
    best = {arm: float("inf") for arm in ARMS}
    results = {}
    for _ in range(REPEATS):
        for arm, jobs in ARMS.items():
            wall, result = _run(jobs)
            best[arm] = min(best[arm], wall)
            results[arm] = result
    speedup = best["in-process"] / best["shared-memory"]
    # Bit-identical results gate unconditionally — a fast transport that
    # corrupts a trace byte is a bug, not a win.
    assert _digest(results["in-process"]) == _digest(
        results["shared-memory"]
    )
    cores = len(os.sched_getaffinity(0))
    trace_mb = _trace_payload_bytes(results["shared-memory"]) / 2**20
    print(
        f"\n{FLEET_N}-unit traced fleet ({trace_mb:.1f} MB of traces): "
        f"in-process {best['in-process']:.2f} s, "
        f"shm jobs={JOBS} {best['shared-memory']:.2f} s "
        f"({speedup:.2f}x, {cores} cores)"
    )
    _merge_results(
        {
            "backend_fleet_n": FLEET_N,
            "backend_trace_mb": round(trace_mb, 2),
            "backend_inprocess_s": round(best["in-process"], 3),
            "backend_shm_s": round(best["shared-memory"], 3),
            "backend_shm_speedup": round(speedup, 3),
            "backend_cpu_count": cores,
        },
        path=RESULTS_PATH,
    )


def _pickled_payload_bytes() -> int:
    """What a pickling transport would ship for the shared-memory arm:
    the same tasks' payloads, run in-process and pickled whole."""
    runner = CampaignRunner(_config())
    tasks = runner._fleet_tasks(_fleet(), unconstrained(), JOBS, iterations=1)
    return sum(
        len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        for _, payload in InProcessBackend().execute(
            tasks, 1, collect_metrics=True
        )
    )


def test_shared_memory_reduces_pickled_result_bytes():
    # Metered pass: the counters are deterministic byte counts, so the
    # reduction floor gates unconditionally on every host.
    runner = CampaignRunner(_config())
    with use_registry(MetricsRegistry(enabled=True)) as registry:
        result = runner.run_fleet(
            MODEL, unconstrained(), devices=_fleet(), iterations=1, jobs=JOBS
        )
    counters = registry.snapshot()["counters"]
    payload_bytes = _trace_payload_bytes(result)
    pickled_bytes = _pickled_payload_bytes()
    shm_bytes = counters.get("transport.pickle_bytes", 0)
    segment_bytes = counters["transport.shm_bytes"]
    reduction = pickled_bytes / max(shm_bytes, 1)
    _merge_results(
        {
            "backend_pickled_payload_bytes": int(pickled_bytes),
            "backend_shm_result_pickle_bytes": int(shm_bytes),
            "backend_shm_segment_bytes": int(segment_bytes),
            "backend_pickle_reduction": round(reduction, 1),
        },
        path=RESULTS_PATH,
    )
    print(
        f"\nresult transport at jobs={JOBS}: payloads pickled whole "
        f"{pickled_bytes / 2**20:.2f} MB, shm pickled "
        f"{shm_bytes / 2**10:.0f} KB + {segment_bytes / 2**20:.2f} MB "
        f"in segments ({reduction:.0f}x fewer pickled bytes)"
    )
    # Every trace sample block travelled through a segment, byte for
    # byte, and the pickled remainder shrank by at least the floor.
    assert segment_bytes == payload_bytes
    assert reduction >= MIN_PICKLE_REDUCTION, (
        f"shared-memory transport pickled only {reduction:.1f}x fewer "
        f"result bytes than the payloads pickled whole "
        f"(floor {MIN_PICKLE_REDUCTION}x)"
    )


def test_crowd_memory_flat_on_shared_memory_backend():
    # 4x the users at the same cohort width must not grow the parent's
    # peak: jobs=2 puts the cohorts on the shared-memory pool, workers
    # ship cohort results back over shared memory, the
    # stream folds them, and eager payload release drops each cohort
    # before the next lands.
    peaks = {}
    for users in MEMORY_USERS:
        config = default_crowd_differential_config(user_count=users)
        tracemalloc.start()
        result = run_streaming_crowd_study(
            config, cohort_size=MEMORY_COHORT, jobs=JOBS
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.users_simulated == users
        peaks[users] = peak
    small, large = (peaks[users] for users in MEMORY_USERS)
    ratio = large / small
    _merge_results(
        {
            f"backend_crowd_mem_peak_mb[{users}]": round(
                peaks[users] / 2**20, 2
            )
            for users in MEMORY_USERS
        }
        | {"backend_crowd_mem_growth_4x_users": round(ratio, 3)},
        path=RESULTS_PATH,
    )
    print(
        f"\nshm-backend crowd peak: {small / 2**20:.1f} MB @ "
        f"{MEMORY_USERS[0]} users, {large / 2**20:.1f} MB @ "
        f"{MEMORY_USERS[1]} (x{ratio:.2f} for 4x users)"
    )
    assert ratio < 1.5, (
        f"parent peak memory grew {ratio:.2f}x for 4x users on the "
        "shared-memory backend — the stream is not O(cohort)"
    )
