"""The repository's benchmark: one command, every metric, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2-default --seed 1 \\
        --seconds 30 --trace 0

Each run measures for about ``--seconds`` seconds.  It starts one fresh
interpreter per repetition (``rep.py``), one at a time, so every
repetition pays a real cold start and no two loads overlap.  Repetitions
continue until the time is used, with at least ``MIN_REPS``.  The run
reports the median of each end-to-end metric over its repetitions.

With ``--trace 1`` the repetitions alternate between untraced and traced.
The run reports the median of each per-layer metric over the traced
repetitions, plus ``trace.overhead_pct`` (traced against untraced
``wall_s``) and ``host.probe_s``, the median over all repetitions of a
fixed reference loop each one times after its workload: it moves nothing
and shows how fast the host itself was.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` holds when
every operation passed its output checks and every repetition, traced or
not, produced the same result digest.  The full record (host block,
per-repetition figures, digests, ``bands_passed`` / ``rank_rho``, spans of
the traced repetitions) is printed on the line before it and written under
``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import host  # noqa: E402
import loads  # noqa: E402

#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: No repetition starts after this many seconds, so a run ends in time.
LAST_START_S = 110.0
#: A run never lasts longer than this.
HARD_LIMIT_S = 170.0
#: Where the run writes its records and scratch files.
STATE_DIR = os.path.join(ROOT, ".perfbench")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(host.PINNED_THREADS)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(STATE_DIR, "tmp")
    return env


def run_rep(args: argparse.Namespace, traced: bool, index: int,
            deadline: float, size: str = None) -> Dict[str, Any]:
    """Start one repetition in a fresh interpreter and wait for it."""
    tag = f"{args.workload}-{args.seed}-{os.getpid()}-{index}"
    out = os.path.join(STATE_DIR, "tmp", f"{tag}.json")
    command = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
        "--out", out, "--workdir", os.path.join(STATE_DIR, "tmp", tag),
    ]
    if size:
        command += ["--size", size]
    launched = time.monotonic()
    command += ["--launched", repr(launched)]
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, errors = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": "repetition timed out", "traced": traced}
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0 or not os.path.exists(out):
        return {"error": (errors or "")[-2000:], "traced": traced}
    with open(out) as handle:
        record = json.load(handle)
    os.unlink(out)
    return record


def median(records: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(record[key] for record in records)


def summarize(args: argparse.Namespace, reps: List[Dict[str, Any]],
              spec: Dict[str, Any]) -> Dict[str, Any]:
    good = [rep for rep in reps if "error" not in rep]
    plain = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]
    # A repetition that crashed counts as one failed operation.
    crashed = len(reps) - len(good)
    failed = sum(rep["failed"] for rep in good) + crashed
    measured = bool(plain) and (bool(traced) or not args.trace)
    metrics: Dict[str, Dict[str, Any]] = {}
    if measured and args.trace:
        metrics = per_layer(plain, traced, spec)
    elif measured:
        metrics = {
            metric["name"]: {"value": median(plain, metric["name"]),
                             "unit": metric["unit"]}
            for metric in spec["end_to_end"]
        }
    return {
        "correct": measured and failed == 0
        and len({rep["digest"] for rep in good}) == 1
        and not any(rep["problems"] for rep in good),
        "attempted": sum(rep["attempted"] for rep in good) + crashed,
        "failed": failed,
        "metrics": metrics,
    }


def per_layer(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Median per-layer figures of the traced repetitions."""
    figures = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    plain_wall = median(plain, "wall_s")
    steps = figures["sim.engine.steps"]
    figures["sim.engine.us_per_step"] = (
        plain_wall * 1e6 / steps if steps else 0.0)
    figures["core.crowd_stream.dropped"] = statistics.median(
        rep["facts"].get("dropped", 0) for rep in traced)
    figures["host.probe_s"] = median(plain + traced, "probe_s")
    figures["trace.overhead_pct"] = 100.0 * (
        median(traced, "wall_s") / plain_wall - 1.0)
    return {metric["name"]: {"value": figures[metric["name"]],
                             "unit": metric["unit"]}
            for metric in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=loads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default=None,
                        help="JSON overrides of the workload size (tests only)")
    args = parser.parse_args()
    # On SIGTERM, unwind so the running repetition's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program source under src/repro; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    started = time.monotonic()
    os.makedirs(os.path.join(STATE_DIR, "tmp"), exist_ok=True)
    os.environ.update(host.PINNED_THREADS)
    # Byte-compile once, outside any timed region: users run with warm
    # caches, so a cold compile must not land in the first repetition.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    reps: List[Dict[str, Any]] = []
    floor = MIN_REPS + (1 if args.trace else 0)
    deadline = started + HARD_LIMIT_S
    while True:
        elapsed = time.monotonic() - started
        if len(reps) >= floor and elapsed >= args.seconds:
            break
        if elapsed >= LAST_START_S:
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args, traced, len(reps), deadline, args.size))
        if "error" in reps[-1]:
            break

    result = summarize(args, reps, spec)
    record = {
        "schema": host.SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.describe(ROOT),
        "repetitions": reps,
        "result": result,
    }
    runs = os.path.join(STATE_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time() * 1000)}.json"
    with open(os.path.join(runs, name), "w") as handle:
        json.dump(record, handle)
    brief = dict(record, repetitions=[
        {key: value for key, value in rep.items() if key != "spans"}
        for rep in reps])
    print(json.dumps({"perfbench": brief}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
