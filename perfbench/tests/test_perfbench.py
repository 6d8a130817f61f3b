"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They use tiny workload sizes, so they check the benchmark's plumbing, not
its figures.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import loads  # noqa: E402

TINY = {
    "table2-default": {"scale": 0.05},
    "table2-parallel": {"scale": 0.05},
    "crowd-stream": {"users": 64, "cohort_size": 16},
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", json.dumps(TINY[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]


@pytest.fixture(scope="module")
def traced_runs():
    return {workload: bench(workload, 1) for workload in loads.WORKLOADS}


def test_untraced_run_emits_the_end_to_end_metrics():
    result, record = bench("table2-default", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == wanted
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert record["host"]["schema"] == "perfbench-v1"
    assert record["host"]["blas_threads"] in (1, None)


@pytest.mark.parametrize("workload", loads.WORKLOADS)
def test_traced_run_emits_the_per_layer_metrics(traced_runs, workload):
    result, record = traced_runs[workload]
    assert result["correct"], [r.get("problems") or r.get("error")
                               for r in record["repetitions"]]
    wanted = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == wanted
    # Traced and untraced repetitions produced the same results.
    assert len({rep["digest"] for rep in record["repetitions"]}) == 1
    assert {rep["traced"] for rep in record["repetitions"]} == {True, False}


def test_table2_default_bypasses_batch_and_transport(traced_runs):
    metrics = traced_runs["table2-default"][0]["metrics"]
    for name, entry in metrics.items():
        if name.startswith(("sim.batch.", "core.backends.", "core.parallel.",
                            "core.crowd_stream.", "thermal.propagator.")):
            assert entry["value"] == 0, name
    assert metrics["thermal.network.calls"]["value"] > 0
    assert metrics["sim.engine.ff_share"]["value"] == 0


def test_table2_parallel_uses_batch_and_transport(traced_runs):
    metrics = traced_runs["table2-parallel"][0]["metrics"]
    for name in ("sim.batch.run_for_s", "thermal.propagator.batch_s",
                 "core.batch_runner.iteration_s", "core.backends.shm_bytes",
                 "core.backends.traces_attached", "core.backends.starts",
                 "core.parallel.wait_s", "sim.engine.ff_share"):
        assert metrics[name]["value"] > 0, name
    assert metrics["core.crowd_stream.cohort_s"]["value"] == 0


def test_crowd_stream_takes_no_euler_steps(traced_runs):
    metrics = traced_runs["crowd-stream"][0]["metrics"]
    for name in ("thermal.network.calls", "thermal.network.step_s",
                 "sim.engine.steps", "soc.calls", "core.backends.shm_bytes"):
        assert metrics[name]["value"] == 0, name
    for name in ("core.crowd_stream.cohort_s", "core.crowd_stream.fold_s",
                 "core.crowd_stream.checkpoint_writes", "sim.batch.asleep_s"):
        assert metrics[name]["value"] > 0, name


@pytest.fixture(scope="module")
def parallel_study():
    return loads.run("table2-parallel", 5, "", TINY["table2-parallel"])


def test_clean_table2_outputs_pass(parallel_study):
    outcome = loads.check("table2-parallel", parallel_study, "",
                          TINY["table2-parallel"])
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted == 36
    assert 0 <= outcome.facts["bands_passed"] <= 10


def _corrupt(study, change):
    """A copy of the study with the first unit's first iteration changed."""
    model = next(iter(study))
    performance, energy = study[model]
    first = performance.devices[0]
    iteration = change(first.iterations[0])
    device = dataclasses.replace(
        first, iterations=(iteration,) + first.iterations[1:])
    performance = dataclasses.replace(
        performance, devices=(device,) + performance.devices[1:])
    return dict(study, **{model: (performance, energy)})


def test_nan_result_field_fails_the_check(parallel_study):
    broken = _corrupt(parallel_study, lambda it: dataclasses.replace(
        it, energy_j=math.nan))
    outcome = loads.check("table2-parallel", broken, "", TINY["table2-parallel"])
    assert outcome.failed == 1
    assert any("non-finite" in problem for problem in outcome.problems)


def test_truncated_trace_fails_the_check(parallel_study):
    from repro.sim.trace import Trace

    def truncate(iteration):
        trace = iteration.trace
        rows = trace.samples()
        short = Trace.from_samples(trace.channels, rows[: len(rows) * 3 // 4],
                                   phases=list(trace.phases))
        return dataclasses.replace(iteration, trace=short)

    outcome = loads.check("table2-parallel", _corrupt(parallel_study, truncate),
                          "", TINY["table2-parallel"])
    assert outcome.failed == 1
    assert any("trace ends" in problem for problem in outcome.problems)


def test_crowd_check_catches_nan_and_broken_checkpoint(tmp_path):
    workdir = str(tmp_path)
    size = TINY["crowd-stream"]
    result = loads.run("crowd-stream", 5, workdir, size)
    clean = loads.check("crowd-stream", result, workdir, size)
    assert clean.problems == [] and clean.failed == 0
    assert -1 <= clean.facts["rank_rho"] <= 1

    nan = dataclasses.replace(result, score_mean=math.nan)
    assert loads.check("crowd-stream", nan, workdir, size).failed > 0

    path = loads.checkpoint_path(workdir)
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(text[: len(text) // 2])
    outcome = loads.check("crowd-stream", result, workdir, size)
    assert outcome.failed > 0
    assert any("checkpoint" in problem for problem in outcome.problems)


def test_wrappers_are_restored():
    from repro.core import backends, crowd_stream
    from repro.device.phone import Device
    from repro.sim.engine import World

    before = (Device.step, World.run_for, backends.SharedMemoryBackend.execute,
              backends.execute_task_payload, crowd_stream.write_checkpoint)
    clock, tracer = layers.DispatchClock(), layers.Tracer()
    clock.install()
    tracer.install()
    assert Device.step is not before[0]
    tracer.uninstall()
    clock.uninstall()
    after = (Device.step, World.run_for, backends.SharedMemoryBackend.execute,
             backends.execute_task_payload, crowd_stream.write_checkpoint)
    assert after == before


def test_compare_labels():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [value * 0.8 for value in parent]
    assert compare.judge(parent, faster, True, 0.1)["label"] == "improved"
    assert compare.judge(faster, parent, True, 0.1)["label"] == "regressed"
    assert compare.judge(parent, list(reversed(parent)), True, 0.1)[
        "label"] == "unresolved"
    assert compare.judge(parent, faster, False, 0.1)["label"] == "regressed"


def test_bare_benchmark_directory_fails(tmp_path):
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
