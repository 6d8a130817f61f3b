"""The digest report of ``scripts/bench_ab.py``."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_ab():
    path = os.path.join(ROOT, "scripts", "bench_ab.py")
    spec = importlib.util.spec_from_file_location("bench_ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(out, side, seed, digests, failed=0, error=False):
    """One run's stdout as ``run.py`` prints it: record line, result line."""
    reps = [{"digest": digest, "failed": failed} for digest in digests]
    if error:
        reps.append({"error": "Traceback ...", "traced": False})
    result = {"correct": not failed and not error and len(set(digests)) == 1,
              "failed": failed + error, "metrics": {}}
    os.makedirs(os.path.join(out, side), exist_ok=True)
    with open(os.path.join(out, side, f"crowd-stream-{seed}.txt"), "w") as handle:
        handle.write(json.dumps({"perfbench": {"repetitions": reps,
                                               "result": result}}) + "\n")
        handle.write(json.dumps(result) + "\n")


def test_report_matches_differs_and_failures(bench_ab, tmp_path, capsys):
    out = str(tmp_path)
    write_run(out, "base", 1, ["aa", "aa"])
    write_run(out, "change", 1, ["aa", "aa", "aa"])
    write_run(out, "base", 2, ["bb"])
    write_run(out, "change", 2, ["cc"])
    write_run(out, "base", 3, [], error=True)
    write_run(out, "change", 3, [], error=True)
    write_run(out, "base", 4, ["dd"])
    write_run(out, "change", 4, ["dd"], failed=1)
    assert not bench_ab.report_digests(out, "crowd-stream", [1, 2, 3, 4])
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "crowd-stream digests: 2/4 pairs match"
    assert printed[1].startswith("  differ seed 2: base bb change cc")
    assert "  base failed at seeds [3]" in printed
    assert "  change failed at seeds [3, 4]" in printed


def test_report_all_match(bench_ab, tmp_path, capsys):
    out = str(tmp_path)
    for seed in (1, 2):
        for side in ("base", "change"):
            write_run(out, side, seed, [f"{seed}" * 8])
    assert bench_ab.report_digests(out, "crowd-stream", [1, 2])
    assert capsys.readouterr().out == "crowd-stream digests: 2/2 pairs match\n"
