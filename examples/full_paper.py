"""Reproduce the whole paper in one command.

Runs the complete ISPASS 2019 study — all five fleets, both workloads —
and prints every headline artifact: Table I, Table II, the per-SoC
normalized figures, and the Figure 13 efficiency series.  Results are
saved to a study directory so re-running re-reports without re-simulating.

    python examples/full_paper.py [outdir] [--paper-scale]

The default shortened protocol finishes in a couple of minutes; pass
``--paper-scale`` for the paper's full 3-minute warmup / 5-minute workload
and five iterations per unit.
"""

import sys
from pathlib import Path

from repro import AccubenchConfig, CampaignConfig, CampaignRunner
from repro.core.paper_targets import TABLE2_TARGETS
from repro.core.reporting import (
    render_efficiency,
    render_experiment,
    render_table1,
    render_table2,
)
from repro.core.study import Study
from repro.silicon import nexus5_table


def get_study(out_dir: Path, paper_scale: bool) -> Study:
    manifest = out_dir / "manifest.json"
    if manifest.exists():
        print(f"(loading cached study from {out_dir})\n")
        return Study.load(out_dir)
    if paper_scale:
        protocol = AccubenchConfig()
    else:
        protocol = AccubenchConfig(
            warmup_s=120.0, workload_s=180.0, iterations=2, dt=0.2
        )
    runner = CampaignRunner(CampaignConfig(accubench=protocol))
    print("Running the full study (5 fleets x 2 workloads)...\n")
    study = Study(results=runner.run_study())
    study.save(out_dir)
    print(f"(saved to {out_dir})\n")
    return study


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    out_dir = Path(args[0]) if args else Path("study-output")
    study = get_study(out_dir, paper_scale="--paper-scale" in sys.argv)

    print("=" * 64)
    print("TABLE I — Nexus 5 voltage/frequency bins (kernel data)")
    print("=" * 64)
    print(render_table1(nexus5_table()))

    for model in study.models:
        print()
        print("=" * 64)
        print(f"FIGURES — {model}")
        print("=" * 64)
        print(render_experiment(study.performance(model), "performance"))
        print(render_experiment(study.energy(model), "energy"))

    print()
    print("=" * 64)
    print("TABLE II — summary of energy-performance variations")
    print("=" * 64)
    print(render_table2(study.table2_rows()))
    print("\npaper's numbers for comparison:")
    for model, target in TABLE2_TARGETS.items():
        print(
            f"  {model:<14s} perf {target.performance:4.0%}   "
            f"energy {target.energy:4.0%}"
        )

    print()
    print("=" * 64)
    print("FIGURE 13 — relative efficiency across generations")
    print("=" * 64)
    print(render_efficiency(study.efficiency_points()))


if __name__ == "__main__":
    main()
