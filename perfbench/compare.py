"""Compare benchmark runs of two commits, one row per workload and metric.

Usage::

    python3 perfbench/compare.py PARENT CHANGE [--json]

``PARENT`` and ``CHANGE`` are directories of run records (the files
``run.py`` writes under ``.perfbench/runs/``) or files holding
``run.py``'s standard output.  Untraced runs are paired by seed when both
sides ran the same seeds, and in order otherwise.

Each row is labelled by the rule for a small sandbox:

``improved``
    the change wins at least nine tenths of the pairs (ties count for
    neither side) and its median is better than the parent's by more
    than the parent's own spread (the distance between its quartiles);
``regressed``
    the same rule in the worse direction, or a median worse than the
    parent's by more than the metric's bound in ``BENCHMARK.json``;
``unresolved``
    anything else: the runs cannot tell the two commits apart.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
WIN_SHARE = 0.9


def read_runs(path: str) -> List[Dict[str, Any]]:
    """Untraced run records found at ``path`` (a directory or a file)."""
    files = (
        [os.path.join(path, name) for name in sorted(os.listdir(path))]
        if os.path.isdir(path) else [path]
    )
    runs = []
    for name in files:
        with open(name) as handle:
            text = handle.read()
        for line in text.splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            document = json.loads(line)
            record = document.get("perfbench", document)
            if "result" in record and not record.get("trace"):
                runs.append(record)
    return runs


def pairs(parent: List[Dict[str, Any]], change: List[Dict[str, Any]]
          ) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    by_seed = {run["seed"]: run for run in parent}
    if len(by_seed) == len(parent) and all(
            run["seed"] in by_seed for run in change):
        return [(by_seed[run["seed"]], run) for run in change]
    return list(zip(parent, change))


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def judge(before: List[float], after: List[float], lower_is_better: bool,
          bound: float) -> Dict[str, Any]:
    """Label one metric from paired parent/change values."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for b, a in zip(before, after) if sign * (b - a) > 0)
    losses = sum(1 for b, a in zip(before, after) if sign * (a - b) > 0)
    p_low, p_mid, p_high = quartiles(before)
    c_low, c_mid, c_high = quartiles(after)
    spread = p_high - p_low
    gain = sign * (p_mid - c_mid)
    count = len(before)
    if wins >= WIN_SHARE * count and gain > spread:
        label = "improved"
    elif losses >= WIN_SHARE * count and -gain > spread:
        label = "regressed"
    elif p_mid and -gain > bound * abs(p_mid):
        label = "regressed"
    else:
        label = "unresolved"
    return {
        "label": label,
        "pairs": count,
        "change_wins": wins,
        "parent_wins": losses,
        "parent": {"q1": p_low, "median": p_mid, "q3": p_high},
        "change": {"q1": c_low, "median": c_mid, "q3": c_high},
        "delta_pct": 100.0 * (c_mid - p_mid) / p_mid if p_mid else None,
    }


def compare(parent_path: str, change_path: str,
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    parent, change = read_runs(parent_path), read_runs(change_path)
    rows = []
    for workload in [entry["name"] for entry in spec["workloads"]]:
        matched = pairs(
            [run for run in parent if run["workload"] == workload],
            [run for run in change if run["workload"] == workload],
        )
        if not matched:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = [p["result"]["metrics"][name]["value"] for p, _ in matched]
            after = [c["result"]["metrics"][name]["value"] for _, c in matched]
            row = judge(before, after, metric["better"] == "lower",
                        metric["bound"])
            rows.append(dict(row, workload=workload, metric=name,
                             unit=metric["unit"]))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--json", action="store_true",
                        help="print the rows as JSON")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows = compare(args.parent, args.change, spec)
    if not rows:
        print("no untraced runs of a common workload found", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(f"{'workload':16} {'metric':12} {'parent':>10} {'change':>10} "
          f"{'delta':>8} {'wins':>7}  label")
    for row in rows:
        delta = row["delta_pct"]
        print(f"{row['workload']:16} {row['metric']:12} "
              f"{row['parent']['median']:10.4g} {row['change']['median']:10.4g} "
              f"{'' if delta is None else f'{delta:+.1f}%':>8} "
              f"{row['change_wins']:>3}/{row['pairs']:<3}  {row['label']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
