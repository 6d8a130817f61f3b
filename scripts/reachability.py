"""Which ``src/repro`` modules and functions the program's own users enter.

Usage (from the root of a checkout)::

    python scripts/reachability.py [--out reach.json]

Every *root* -- each ``repro-bench`` subcommand and flag path, the paper's
figure/table/ablation benches, ``examples/``, the telemetry smoke script
and the three ``perfbench`` workloads -- runs as its own subprocess under a
``sitecustomize`` hook that installs a ``sys.settrace``/``threading.settrace``
function.  The hook records the code object of every Python frame that
starts and, when the process exits, writes those that belong to
``src/repro`` to a per-process file.  Tests are not roots: they enter
whatever they test.  The perfbench workloads run pinned to one CPU, so
their ``jobs`` (the usable CPUs) is 1 and every unit runs in-process.

The report lists the src modules that no root imported, the modules that
were imported but none of whose functions was entered, and (in ``--out``)
every function that was never entered.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

HOOK = '''
import atexit, json, os, sys, threading, time

_seen = {}
_done = []


def _tracer(frame, event, arg):
    _seen[id(frame.f_code)] = frame.f_code


def _dump():
    if _done:
        return
    _done.append(True)
    sys.settrace(None)
    src = os.environ["REPRO_REACH_SRC"]
    rows = sorted({(c.co_filename, c.co_firstlineno,
                    getattr(c, "co_qualname", c.co_name))
                   for c in list(_seen.values())
                   if c.co_filename.startswith(src)})
    path = os.path.join(os.environ["REPRO_REACH_OUT"],
                        "%d-%d.json" % (os.getpid(), time.monotonic_ns()))
    with open(path, "w") as handle:
        json.dump(rows, handle)


def _exit(code, _real=os._exit):
    _dump()
    _real(code)


os._exit = _exit
atexit.register(_dump)
threading.settrace(_tracer)
sys.settrace(_tracer)
'''


def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def roots(work: str) -> List[Tuple[str, List[str]]]:
    """Every command whose entered functions count as reached."""
    fast = ("--scale", "0.05", "--iterations", "1")
    metrics = os.path.join(work, "metrics.json")
    crowd_metrics = os.path.join(work, "crowd-metrics.json")
    crowd_json = os.path.join(work, "crowd.json")
    checkpoint = os.path.join(work, "crowd.ckpt")
    crowd = ("crowd", "--users", "8", "--cohort-size", "4", "--scale", "0.05")
    commands: List[Tuple[str, List[str]]] = [
        ("list-devices", cli("list-devices")),
        ("table1", cli("table1")),
        ("run-fleet", cli("run-fleet", "Nexus 5", *fast, "--json",
                          os.path.join(work, "fleet.json"), "--metrics-out",
                          metrics, "--progress")),
        ("run-fleet expm", cli("run-fleet", "LG G5", *fast, "--solver", "expm",
                               "--experiment", "fixed", "--no-thermabox",
                               "--utilization", "0.8",
                               "--memory-boundedness", "0.3")),
        ("run-fleet jobs 2", cli("run-fleet", "Nexus 5", *fast, "--solver",
                                 "expm", "--jobs", "2",
                                 "--experiment", "unconstrained")),
        ("run-fleet serve", cli("run-fleet", "Google Pixel", *fast,
                                "--serve", "0")),
        ("table2", cli("table2", *fast)),
        ("table2 expm", cli("table2", *fast, "--solver", "expm", "--jobs", "2")),
        ("estimate-ambient", cli("estimate-ambient", "Nexus 5", "--observe",
                                 "120")),
        ("crowd", cli(*crowd, "--json", crowd_json, "--metrics-out",
                      crowd_metrics, "--progress", "--strict-watchdog")),
        ("crowd models", cli(*crowd, "--models", "Nexus 5", "Nexus 6",
                             "--jobs", "2", "--serve", "0")),
        ("crowd checkpoint", cli(*crowd, "--checkpoint", checkpoint,
                                 "--stop-after-cohorts", "1")),
        ("crowd resume", cli(*crowd, "--checkpoint", checkpoint)),
        ("validate", cli("validate", *fast, "--models", "Nexus 5")),
        ("export-fleet", cli("export-fleet", "Nexus 5", *fast, "--out",
                             os.path.join(work, "export"))),
        ("report", cli("report", metrics)),
        ("report prometheus", cli("report", metrics, "--prometheus")),
        ("report spans", cli("report", metrics, "--spans-tree")),
        ("report crowd", cli("report", crowd_json)),
        ("report manifest", cli("report", crowd_json + ".manifest.json")),
        ("watch manifest", cli("watch", crowd_json + ".manifest.json")),
        ("telemetry smoke", [sys.executable, "scripts/telemetry_smoke.py",
                             "--out", os.path.join(work, "smoke")]),
    ]
    commands += [(os.path.relpath(path, ROOT), [sys.executable, path])
                 for path in sorted(glob.glob(os.path.join(ROOT, "examples",
                                                           "*.py")))]
    # A second run re-reports the study the first one saved.
    commands.append(("examples/full_paper.py cached", [
        sys.executable, os.path.join(ROOT, "examples", "full_paper.py")]))
    benches = sorted(
        os.path.relpath(path, ROOT)
        for pattern in ("test_fig*.py", "test_table*.py", "test_ablation*.py")
        for path in glob.glob(os.path.join(ROOT, "benchmarks", pattern)))
    commands.append(("paper benches", [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--benchmark-disable", *benches]))
    commands.append(("check", cli("check", "--differential", "--invariants",
                                  "--golden")))
    commands.append(("check update-golden", cli(
        "check", "--update-golden", "--golden-dir",
        os.path.join(work, "golden"))))
    for workload in ("table2-default", "table2-parallel", "crowd-stream"):
        commands.append((f"perfbench {workload}", [
            "taskset", "-c", "0", sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "1"]))
    return commands


def watch_live(env: Dict[str, str], work: str) -> None:
    """``repro-bench watch URL --once`` against a live ``crowd --serve 0``."""
    serving = subprocess.Popen(
        cli("crowd", "--users", "64", "--cohort-size", "8", "--scale", "0.1",
            "--serve", "0", "--json", os.path.join(work, "served.json")),
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        for line in serving.stderr:
            if "http://" in line:
                url = line[line.index("http://"):].split()[0]
                subprocess.run(cli("watch", url, "--once"), cwd=ROOT, env=env,
                               stdout=subprocess.DEVNULL, timeout=120)
                break
    finally:
        serving.communicate(timeout=600)


def defined_functions() -> Dict[str, Dict[int, str]]:
    """``{module path: {first line of code object: qualified name}}``."""
    found: Dict[str, Dict[int, str]] = {}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, os.path.dirname(SRC))
        functions = found.setdefault(rel, {})
        with open(path) as handle:
            tree = ast.parse(handle.read())

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    functions[first] = prefix + child.name
                    visit(child, prefix + child.name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="write the full report (every never-entered "
                        "function) as JSON here")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-reach-") as work:
        hook_dir = os.path.join(work, "hook")
        records = os.path.join(work, "records")
        os.makedirs(hook_dir)
        os.makedirs(records)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
            handle.write(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.update(REPRO_REACH_SRC=SRC + os.sep, REPRO_REACH_OUT=records,
                   REPRO_BENCH_SKIP_RATE_ASSERT="1")

        failed = []
        for label, command in roots(work):
            start = time.monotonic()
            # Examples run in the scratch directory: they may save there.
            cwd = work if label.startswith("examples/") else ROOT
            status = subprocess.run(command, cwd=cwd, env=env,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL).returncode
            print(f"  {label:40} exit {status}  "
                  f"{time.monotonic() - start:6.1f} s", flush=True)
            if status:
                failed.append(label)
        watch_live(env, work)
        entered: Set[Tuple[str, int]] = set()
        for path in glob.glob(os.path.join(records, "*.json")):
            with open(path) as handle:
                for filename, line, _ in json.load(handle):
                    entered.add((os.path.relpath(
                        filename, os.path.dirname(SRC)), line))

    functions = defined_functions()
    imported = {module for module, _ in entered}
    never_imported = sorted(m for m in functions if m not in imported)
    never_entered = sorted(
        m for m, defs in functions.items()
        if m in imported and defs and not any((m, line) in entered
                                              for line in defs))
    unentered = {m: sorted(name for line, name in defs.items()
                           if (m, line) not in entered)
                 for m, defs in functions.items()}
    lines = {}
    for module in functions:
        with open(os.path.join(os.path.dirname(SRC), module)) as handle:
            lines[module] = sum(1 for _ in handle)
    print("\nnever imported:")
    for module in never_imported:
        print(f"  {module} ({lines[module]} lines)")
    print("imported, no function entered:")
    for module in never_entered:
        print(f"  {module} ({lines[module]} lines)")
    total = sum(len(d) for d in functions.values())
    missed = sum(len(v) for v in unentered.values())
    print(f"functions never entered: {missed} of {total}")
    if failed:
        print("roots that exited non-zero: " + ", ".join(failed))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"never_imported": never_imported,
                       "never_entered_modules": never_entered,
                       "never_entered_functions": {
                           m: names for m, names in unentered.items() if names},
                       "failed_roots": failed}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
