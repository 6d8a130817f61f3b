"""A/B this checkout against a local commit with the repository's benchmark.

Usage (from the root of a checkout)::

    python scripts/bench_ab.py BASE_REF --workload table2-default \\
        --pairs 10 --seconds 4 --seed 101

``BASE_REF`` (any commit-ish, e.g. ``HEAD`` or ``main~1``) is checked out
with ``git worktree add`` in a temporary directory, so the comparison needs
nothing but the local repository.  For each workload the script then runs
``--pairs`` pairs of ``perfbench/run.py --trace 0``: one run in the base
tree and one in this tree, each run measuring its own tree's ``src/``.
The side that goes first alternates from pair to pair, so a slow spell of
the host does not land on one side only, and pair ``i`` runs seed
``--seed + i`` on both sides, which is how ``perfbench/compare.py`` pairs
them.  Standard output of every run is kept under ``--out`` (``base/`` and
``change/``).  After the pairs the script prints, per workload, whether
each pair's result digests (``repetitions[].digest`` of the run records)
agree between base and change, and the seeds where either side failed;
then ``perfbench/compare.py`` labels the two sets.

The worktree is removed however the script ends: on success, on an error
and on Ctrl-C.  Nothing under ``perfbench/`` is changed or needed beyond
``run.py`` and ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table2-default", "table2-parallel", "crowd-stream")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def run_side(tree: str, workload: str, seed: int, seconds: float,
             path: str) -> None:
    """One ``perfbench/run.py`` run in ``tree``; its stdout goes to ``path``."""
    command = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    with open(path, "w") as handle:
        subprocess.run(command, cwd=tree, stdout=handle, check=True)
    with open(path) as handle:
        last = handle.read().strip().splitlines()[-1:]
    print(f"  {os.path.basename(os.path.dirname(path)):6} seed {seed}: "
          f"{last[0][:100] if last else '(no output)'}", flush=True)


def run_pairs(base_tree: str, workload: str, args: argparse.Namespace,
              out: str) -> None:
    sides = {"base": base_tree, "change": ROOT}
    for name in sides:
        os.makedirs(os.path.join(out, name), exist_ok=True)
    for index in range(args.pairs):
        seed = args.seed + index
        order = ("base", "change") if index % 2 == 0 else ("change", "base")
        print(f"{workload} pair {index + 1}/{args.pairs}", flush=True)
        for name in order:
            path = os.path.join(out, name, f"{workload}-{seed}.txt")
            run_side(sides[name], workload, seed, args.seconds, path)


def run_record(path: str) -> Optional[Dict]:
    """The run record ``run.py`` printed into ``path``, or ``None``."""
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith('{"perfbench"'):
                    return json.loads(line)["perfbench"]
    except OSError:
        pass
    return None


def run_failed(record: Optional[Dict]) -> bool:
    """Whether a run crashed, failed an operation or disagreed with itself."""
    if record is None:
        return True
    result = record.get("result", {})
    return (not result.get("correct", False) or result.get("failed", 0) > 0
            or any("error" in rep for rep in record.get("repetitions", [])))


def run_digests(record: Optional[Dict]) -> List[str]:
    """Distinct result digests of a run's repetitions, sorted."""
    if record is None:
        return []
    return sorted({rep["digest"] for rep in record.get("repetitions", [])
                   if "digest" in rep})


def report_digests(out: str, workload: str, seeds: List[int]) -> bool:
    """Print whether each pair's result digests match; True if all do.

    A pair matches when both runs produced one digest and it is the same
    on both sides.  Seeds where either side failed are listed apart.
    """
    matched: List[int] = []
    differ: List[str] = []
    failed: Dict[str, List[int]] = {"base": [], "change": []}
    for seed in seeds:
        records = {
            side: run_record(os.path.join(out, side, f"{workload}-{seed}.txt"))
            for side in failed
        }
        for side, record in records.items():
            if run_failed(record):
                failed[side].append(seed)
        digests = {side: run_digests(record) for side, record in records.items()}
        if len(digests["base"]) == 1 and digests["base"] == digests["change"]:
            matched.append(seed)
        elif digests["base"] or digests["change"]:
            differ.append(
                f"seed {seed}: base {','.join(d[:12] for d in digests['base']) or '-'}"
                f" change {','.join(d[:12] for d in digests['change']) or '-'}")
    print(f"{workload} digests: {len(matched)}/{len(seeds)} pairs match", flush=True)
    for line in differ:
        print(f"  differ {line}", flush=True)
    for side, bad in failed.items():
        if bad:
            print(f"  {side} failed at seeds {bad}", flush=True)
    return not differ


def compare(out: str) -> int:
    return subprocess.run([
        sys.executable, os.path.join(ROOT, "perfbench", "compare.py"),
        os.path.join(out, "base"), os.path.join(out, "change"),
    ]).returncode


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="commit-ish to compare against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default "
                             "table2-default)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="interleaved pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="run.py --seconds per run (default 4)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair (default 1)")
    parser.add_argument("--out", default=None,
                        help="where run outputs are kept (default "
                             ".perfbench/ab/<time>)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or ["table2-default"]
    out = args.out or os.path.join(
        ROOT, ".perfbench", "ab", time.strftime("%Y%m%d-%H%M%S"))
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")

    signal.signal(signal.SIGTERM, _interrupt)
    scratch = tempfile.mkdtemp(prefix="bench-ab-")
    base_tree = os.path.join(scratch, "base")
    added = False
    try:
        git("worktree", "add", "--detach", base_tree, base_sha)
        added = True
        print(f"base {base_sha[:12]} in {base_tree}; change = {ROOT}",
              flush=True)
        for workload in workloads:
            run_pairs(base_tree, workload, args, out)
        print(f"run outputs kept in {out}")
        seeds = [args.seed + index for index in range(args.pairs)]
        for workload in workloads:
            report_digests(out, workload, seeds)
        return compare(out)
    except KeyboardInterrupt:
        print("interrupted; removing the base worktree", file=sys.stderr)
        return 130
    finally:
        if added:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            base_tree], capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
