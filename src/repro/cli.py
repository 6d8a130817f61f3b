"""Command-line interface: run the paper's experiments from a shell.

    repro-bench list-devices
    repro-bench table1
    repro-bench run-fleet "Nexus 5" --experiment both --scale 0.3
    repro-bench table2 --scale 0.3 --iterations 2
    repro-bench estimate-ambient "Nexus 5" --ambient 31
    repro-bench crowd --users 12 --scale 0.5
    repro-bench run-fleet "Nexus 5" --metrics-out m.json --progress
    repro-bench report m.json
    repro-bench check --differential --invariants
    repro-bench check --update-golden
    repro-bench crowd --users 2048 --serve 9100 --checkpoint c.json
    repro-bench watch http://127.0.0.1:9100

Every command prints a human-readable report; ``run-fleet`` can also dump
machine-readable JSON (``--json out.json``), collect run telemetry
(``--metrics-out m.json``, summarized later by ``report``) and stream
per-unit completion lines to stderr (``--progress``).  ``--scale``
shortens the protocol's phase durations (1.0 = the paper's 3-minute
warmup / 5-minute workload).

``--serve PORT`` exposes a live HTTP telemetry endpoint for the duration
of the run (``/metrics`` Prometheus text, ``/status`` JSON progress,
``/spans`` dual-clock span tree); ``watch`` tails such an endpoint — or
pretty-prints a ``repro-manifest-v1`` file after the fact.  Runs that
write a JSON result or checkpoint also write a sibling
``*.manifest.json`` provenance document.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core.config import AccubenchConfig
from repro.core.experiments import fixed_frequency, unconstrained
from repro.core.reporting import (
    render_experiment,
    render_table1,
    render_table2,
)
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.device.catalog import DEVICE_NAMES, device_spec
from repro.errors import ReproError
from repro.rng import DEFAULT_ROOT_SEED
from repro.soc.catalog import soc_by_name


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Reproduction of 'Quantifying Process Variations and Its "
            "Impacts on Smartphones' (ISPASS 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-devices", help="catalogued handsets and SoCs")
    sub.add_parser("table1", help="print the paper's Table I voltage bins")

    run = sub.add_parser("run-fleet", help="run one model's paper fleet")
    run.add_argument("model", help="handset model, e.g. 'Nexus 5'")
    run.add_argument(
        "--experiment",
        choices=("unconstrained", "fixed", "both"),
        default="both",
        help="which workload(s) to run",
    )
    _add_protocol_args(run)
    run.add_argument("--json", metavar="PATH", help="also dump results as JSON")
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="collect run telemetry (engine counters, phase spans, per-task "
        "wall times) and write it as a metrics JSON document; results are "
        "identical with or without collection",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="print one line to stderr per completed unit, live",
    )
    run.add_argument(
        "--serve",
        type=int,
        metavar="PORT",
        default=None,
        help="serve live telemetry over HTTP while the fleet runs "
        "(/metrics, /status, /spans, /healthz); 0 picks a free port",
    )

    table2 = sub.add_parser("table2", help="the full Table II study")
    table2.add_argument(
        "--models", nargs="*", default=None, help="subset of models"
    )
    _add_protocol_args(table2)

    ambient = sub.add_parser(
        "estimate-ambient",
        help="run the §VI cooldown probe and estimate the room temperature",
    )
    ambient.add_argument("model", help="handset model")
    ambient.add_argument(
        "--ambient", type=float, default=26.0, help="true room temperature, °C"
    )
    ambient.add_argument(
        "--observe", type=float, default=600.0, help="observation window, s"
    )

    crowd = sub.add_parser(
        "crowd", help="simulate the §VI crowdsourced study with strict filters"
    )
    crowd.add_argument("--model", default="Nexus 5")
    crowd.add_argument(
        "--models",
        nargs="*",
        default=None,
        help="heterogeneous population: users cycle through these models "
        "in population order (overrides --model)",
    )
    crowd.add_argument("--users", type=int, default=12)
    crowd.add_argument("--scale", type=float, default=1.0)
    crowd.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED)
    crowd.add_argument(
        "--cohort-size",
        type=int,
        default=256,
        help="users advanced per lock-step batch",
    )
    crowd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for cohort execution",
    )
    crowd.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="checkpoint file: resume from it if present, update it as "
        "cohorts complete",
    )
    crowd.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="write the checkpoint every N folded cohorts",
    )
    crowd.add_argument(
        "--stop-after-cohorts",
        type=int,
        default=None,
        help="fold at most N new cohorts then exit (resume later from "
        "the checkpoint)",
    )
    crowd.add_argument(
        "--progress",
        action="store_true",
        help="print one line to stderr per completed cohort, live",
    )
    crowd.add_argument(
        "--json", metavar="PATH", help="also dump the campaign summary as JSON"
    )
    crowd.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="collect campaign telemetry and write it as a metrics JSON "
        "document",
    )
    crowd.add_argument(
        "--serve",
        type=int,
        metavar="PORT",
        default=None,
        help="serve live telemetry over HTTP while the campaign runs "
        "(0 picks a free port)",
    )
    crowd.add_argument(
        "--strict-watchdog",
        action="store_true",
        help="exit nonzero if any campaign watchdog rule fires "
        "(stuck cohort, throughput regression, drop-rate spike)",
    )

    validate = sub.add_parser(
        "validate", help="check the calibrated build against the paper's bands"
    )
    validate.add_argument(
        "--models", nargs="*", default=None, help="subset of models"
    )
    _add_protocol_args(validate)

    export = sub.add_parser(
        "export-fleet", help="run a fleet and export figure data as CSV"
    )
    export.add_argument("model", help="handset model")
    export.add_argument("--out", required=True, metavar="DIR", help="output directory")
    _add_protocol_args(export)

    check = sub.add_parser(
        "check",
        help="run the correctness harness: differential pairings, runtime "
        "invariants, golden-result regression (all three by default)",
    )
    check.add_argument(
        "--models", nargs="*", default=None, help="subset of models"
    )
    check.add_argument(
        "--differential",
        action="store_true",
        help="A/B pairings: euler vs expm, serial vs parallel, "
        "fast-forward on vs off",
    )
    check.add_argument(
        "--invariants",
        action="store_true",
        help="run campaigns with the physics invariant suite attached",
    )
    check.add_argument(
        "--golden",
        action="store_true",
        help="re-run the recorded golden scenarios and diff the stores",
    )
    check.add_argument(
        "--update-golden",
        action="store_true",
        help="regenerate the golden files instead of checking them",
    )
    check.add_argument(
        "--golden-dir",
        default="tests/golden",
        metavar="DIR",
        help="golden store location",
    )
    check.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="protocol duration scale for differential/invariant runs",
    )
    check.add_argument(
        "--iterations", type=int, default=None, help="iterations per unit"
    )
    check.add_argument(
        "--seed", type=int, default=DEFAULT_ROOT_SEED, help="root seed"
    )

    report = sub.add_parser(
        "report",
        help="summarize a metrics JSON written by --metrics-out (also "
        "understands crowd-stream summaries and run manifests)",
    )
    report.add_argument("metrics", help="path to the metrics JSON document")
    report.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition format instead of the table",
    )
    report.add_argument(
        "--spans-tree",
        action="store_true",
        help="render the dual-clock span hierarchy instead of the summary",
    )

    watch = sub.add_parser(
        "watch",
        help="tail a live run's /status endpoint, or pretty-print a "
        "run manifest file",
    )
    watch.add_argument(
        "target", help="telemetry URL (http://host:port) or manifest path"
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (URL targets)",
    )
    watch.add_argument(
        "--once", action="store_true", help="poll once and exit"
    )

    return parser


def _add_protocol_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale factor on protocol durations (1.0 = paper length)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None, help="iterations per unit"
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_ROOT_SEED, help="root seed"
    )
    parser.add_argument(
        "--no-thermabox",
        action="store_true",
        help="run in the open room instead of the chamber",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for fleet execution (0 = all cores); "
        "results are identical to --jobs 1",
    )
    parser.add_argument(
        "--solver",
        choices=("euler", "expm"),
        default="euler",
        help="thermal solver: sub-stepped explicit Euler, or the exact "
        "matrix-exponential propagator (enables the cooldown sleep "
        "fast-forward)",
    )
    parser.add_argument(
        "--utilization",
        type=float,
        default=None,
        help="per-core CPU utilization of the benchmark load, (0, 1]",
    )
    parser.add_argument(
        "--memory-boundedness",
        type=float,
        default=None,
        help="fraction of workload time stalled on memory at top "
        "frequency (β), [0, 1)",
    )


def _runner(args: argparse.Namespace) -> CampaignRunner:
    from repro.obs import ProgressPrinter

    protocol = AccubenchConfig().scaled(args.scale)
    overrides = {}
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if getattr(args, "solver", None):
        overrides["thermal_solver"] = args.solver
    if getattr(args, "utilization", None) is not None:
        overrides["utilization"] = args.utilization
    if getattr(args, "memory_boundedness", None) is not None:
        overrides["memory_boundedness"] = args.memory_boundedness
    if overrides:
        protocol = replace(protocol, **overrides)
    return CampaignRunner(
        CampaignConfig(
            accubench=protocol,
            use_thermabox=not args.no_thermabox,
            root_seed=args.seed,
            jobs=getattr(args, "jobs", 1),
        ),
        progress=ProgressPrinter() if getattr(args, "progress", False) else None,
    )


def _metrics_scope(args: argparse.Namespace):
    """An active collection scope when ``--metrics-out`` or ``--serve``.

    Returns ``(context manager, registry-or-None)``; the caller runs the
    campaign inside the context and, if ``--metrics-out`` was given,
    writes the registry where the flag pointed.  ``--serve`` needs the
    registry live too — an endpoint scraping a disabled registry would
    answer empty documents.
    """
    from contextlib import nullcontext

    from repro.obs import MetricsRegistry, use_registry

    if not getattr(args, "metrics_out", None) and getattr(args, "serve", None) is None:
        return nullcontext(), None
    registry = MetricsRegistry(enabled=True)
    return use_registry(registry), registry


def _serve_scope(args: argparse.Namespace, registry, bus):
    """A running :class:`~repro.obs.TelemetryServer` when ``--serve``."""
    from contextlib import nullcontext

    from repro.obs import TelemetryServer

    if getattr(args, "serve", None) is None:
        return nullcontext()
    server = TelemetryServer(registry=registry, bus=bus, port=args.serve)
    server.start()
    print(f"serving telemetry at {server.url}", file=sys.stderr)
    return server


def _cmd_list_devices() -> int:
    print(f"{'Model':<14s} {'SoC':<8s} {'Process':<12s} {'Cores':>5s} "
          f"{'Top MHz':>8s} {'Bins':>5s}")
    for name in DEVICE_NAMES:
        spec = device_spec(name)
        soc = soc_by_name(spec.soc_name)
        top = max(cluster.max_freq_mhz for cluster in soc.clusters)
        print(
            f"{name:<14s} {soc.name:<8s} {soc.process.name:<12s} "
            f"{soc.total_cores:>5d} {top:>8.0f} {soc.bin_count:>5d}"
        )
    return 0


def _cmd_table1() -> int:
    from repro.silicon.vf_tables import nexus5_table

    print(render_table1(nexus5_table()))
    return 0


def _cmd_run_fleet(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.obs import ProgressBus, chain_progress

    bus = ProgressBus()
    runner = _runner(args)
    runner.progress = chain_progress(runner.progress, bus)
    spec = device_spec(args.model)
    documents = {}
    scope, registry = _metrics_scope(args)
    fingerprint = None
    with scope, _serve_scope(args, registry, bus):
        # Both workloads go out in one dispatch (one pool, one task count).
        if args.experiment == "both":
            performance, energy = runner.run_model(args.model)
        elif args.experiment == "unconstrained":
            performance, energy = runner.run_fleet(args.model, unconstrained()), None
        else:
            performance, energy = None, runner.run_fleet(
                args.model, fixed_frequency(spec)
            )
        if performance is not None:
            print(render_experiment(performance, "performance"))
            print(
                f"performance variation: {performance.performance_variation:.1%}\n"
            )
            documents["unconstrained"] = performance
        if energy is not None:
            print(render_experiment(energy, "energy"))
            print(f"energy variation: {energy.energy_variation:.1%}")
            documents["fixed-frequency"] = energy
    if registry is not None and args.metrics_out:
        from repro.obs import write_metrics

        write_metrics(registry, args.metrics_out)
        print(f"\nwrote metrics to {args.metrics_out}")
    if args.json:
        import json

        from repro.core.serialize import experiment_to_dict
        from repro.obs import (
            build_manifest,
            fingerprint_payload,
            manifest_path_for,
            write_manifest,
        )

        payload = {name: experiment_to_dict(r) for name, r in documents.items()}
        with open(args.json, "w") as fp:
            json.dump(payload, fp, indent=2)
        print(f"\nwrote {args.json}")
        fingerprint = fingerprint_payload(
            {
                "config": asdict(runner.config),
                "model": args.model,
                "experiment": args.experiment,
            }
        )
        manifest = build_manifest(
            "fleet",
            fingerprint,
            args.seed,
            registry=registry,
            status=bus.status(),
            extra={"json_path": args.json, "model": args.model},
        )
        path = write_manifest(manifest, manifest_path_for(args.json))
        print(f"wrote {path}")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    study = _runner(args).run_study(args.models or None)
    rows = {
        model: (
            device_spec(model).soc_name,
            len(perf.devices),
            perf.performance_variation,
            energy.energy_variation,
        )
        for model, (perf, energy) in study.items()
    }
    print(render_table2(rows))
    return 0


def _cmd_estimate_ambient(args: argparse.Namespace) -> int:
    from repro.core.ambient_estimation import cooldown_probe
    from repro.device.fleet import build_device, paper_units
    from repro.instruments.monsoon import MonsoonPowerMonitor
    from repro.thermal.ambient import ConstantAmbient

    unit = paper_units(args.model)[0]
    device = build_device(unit, initial_temp_c=args.ambient)
    device.connect_supply(MonsoonPowerMonitor(device.spec.battery.nominal_v))
    estimate = cooldown_probe(
        device, ConstantAmbient(args.ambient), observe_s=args.observe
    )
    print(
        f"true ambient {args.ambient:.1f} C -> estimated "
        f"{estimate.ambient_c:.1f} C "
        f"(tau {estimate.time_constant_s:.0f} s, r² {estimate.r_squared:.3f}, "
        f"{'confident' if estimate.is_confident() else 'NOT confident'})"
    )
    return 0


def _cmd_crowd(args: argparse.Namespace) -> int:
    from repro.core.crowd import CrowdConfig
    from repro.core.crowd_stream import run_streaming_crowd_study
    from repro.obs import (
        ProgressBus,
        ProgressPrinter,
        default_watchdog,
        manifest_path_for,
    )

    config = CrowdConfig(
        model=args.model,
        models=tuple(args.models or ()),
        user_count=args.users,
        protocol=CrowdConfig().protocol.scaled(args.scale),
        root_seed=args.seed,
    )
    bus = ProgressBus()
    watchdog = default_watchdog()
    scope, registry = _metrics_scope(args)
    with scope, _serve_scope(args, registry, bus):
        result = run_streaming_crowd_study(
            config,
            cohort_size=args.cohort_size,
            jobs=args.jobs,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            stop_after_cohorts=args.stop_after_cohorts,
            progress=ProgressPrinter() if args.progress else None,
            telemetry=bus,
            watchdog=watchdog,
            manifest_path=(
                str(manifest_path_for(args.json)) if args.json else None
            ),
            log=lambda message: print(message, file=sys.stderr, flush=True),
        )
    print(
        f"{result.submission_count} submissions from "
        f"{result.users_simulated} users "
        f"({result.cohorts_completed}/{result.cohorts_total} cohorts "
        f"of {result.cohort_size})"
    )
    if result.dropped:
        total = sum(result.dropped.values())
        reasons = ", ".join(
            f"{reason}: {count}"
            for reason, count in sorted(result.dropped.items())
        )
        print(f"dropped {total} users ({reasons})")
    if result.ranking_quality_raw is not None:
        print(
            "raw ranking quality (Spearman ρ):      "
            f"{result.ranking_quality_raw:+.2f}"
        )
    if result.ranking_quality_filtered is not None:
        print(
            f"after strict filters ({result.filtered_count} kept):      "
            f"{result.ranking_quality_filtered:+.2f}"
        )
    elif result.submission_count:
        print(
            f"after strict filters: only {result.filtered_count} kept — "
            "need ≥3"
        )
    if result.score_quantiles:
        quantiles = " ".join(
            f"{name}={value:.1f}"
            for name, value in sorted(result.score_quantiles.items())
        )
        print(f"score quantiles (streamed): {quantiles}")
    print(
        f"{result.wall_s:.1f} s wall, {result.users_per_sec:.1f} users/s"
    )
    if not result.complete and args.checkpoint:
        print(
            f"campaign paused at cohort {result.cohorts_completed}; "
            f"resume with --checkpoint {args.checkpoint}"
        )
    if registry is not None and args.metrics_out:
        from repro.obs import write_metrics

        write_metrics(registry, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    if args.json:
        import json

        with open(args.json, "w") as fp:
            json.dump(result.to_dict(), fp, indent=2)
        print(f"wrote {args.json} (+ manifest {manifest_path_for(args.json)})")
    if watchdog.triggered:
        print(
            f"{len(watchdog.warnings)} watchdog warning(s) raised",
            file=sys.stderr,
        )
        if args.strict_watchdog:
            return 3
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import all_passed, render_report, validate_study

    runner = _runner(args)
    results = validate_study(runner, models=args.models)
    print(render_report(results))
    return 0 if all_passed(results) else 1


def _cmd_export_fleet(args: argparse.Namespace) -> int:
    import os

    from repro.core.figure_data import bar_series, export_bundle

    runner = _runner(args)
    perf, energy = runner.run_model(args.model)
    slug = args.model.lower().replace(" ", "-")
    bundle = export_bundle(
        [
            bar_series(perf, "performance", name=f"{slug}-performance"),
            bar_series(energy, "energy", name=f"{slug}-energy"),
        ]
    )
    os.makedirs(args.out, exist_ok=True)
    for name, csv_text in bundle.items():
        path = os.path.join(args.out, f"{name}.csv")
        with open(path, "w") as fp:
            fp.write(csv_text)
        print(f"wrote {path}")
    print(f"serials (unit_index order): {', '.join(perf.serials)}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.check import run_differential, update_golden
    from repro.check.differential import default_differential_config
    from repro.check.golden import check_golden
    from repro.core.experiments import unconstrained

    models = args.models if args.models else list(DEVICE_NAMES)

    if args.update_golden:
        for path in update_golden(args.golden_dir, models):
            print(f"wrote {path}")
        return 0

    # No explicit selection means the full battery.
    run_all = not (args.differential or args.invariants or args.golden)
    base = default_differential_config(scale=args.scale, root_seed=args.seed)
    failed = False

    if args.differential or run_all:
        print("== differential pairings ==")
        for report in run_differential(
            models, base=base, iterations=args.iterations
        ):
            print(report.render())
            failed = failed or not report.passed
        from repro.check import (
            crowd_stream_pairing_report,
            telemetry_parity_report,
        )

        report = crowd_stream_pairing_report()
        print(report.render())
        failed = failed or not report.passed
        report = telemetry_parity_report(
            models[0], config=base, iterations=args.iterations
        )
        print(report.render())
        failed = failed or not report.passed

    if args.invariants or run_all:
        print("== runtime invariants ==")
        config = dc_replace(
            base, accubench=dc_replace(base.accubench, check_invariants=True)
        )
        runner = CampaignRunner(config)
        from repro.errors import InvariantViolation

        for model in models:
            try:
                runner.run_fleet(
                    model, unconstrained(), iterations=args.iterations, jobs=1
                )
            except InvariantViolation as violation:
                print(f"[FAIL] {model}: {violation}")
                failed = True
            else:
                print(f"[PASS] {model}: all invariants held")

    if args.golden or run_all:
        print("== golden regression ==")
        for report in check_golden(args.golden_dir, models):
            print(report.render())
            failed = failed or not report.passed

    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        format_manifest,
        format_span_tree,
        format_summary,
        prometheus_text,
        read_metrics,
        validate_manifest,
    )

    # Sniff the document: report understands metrics files, crowd-stream
    # summaries (--json from crowd) and run manifests.  Unreadable
    # files fall through to read_metrics, whose errors are ReproErrors.
    kind = None
    try:
        with open(args.metrics) as fp:
            raw = json.load(fp)
        if isinstance(raw, dict):
            kind = raw.get("format")
    except (OSError, json.JSONDecodeError):
        pass
    if kind == "repro-manifest-v1":
        print(format_manifest(validate_manifest(raw)), end="")
        return 0
    if kind == "repro-crowd-stream-v1":
        print(_render_crowd_summary(raw), end="")
        return 0
    document = read_metrics(args.metrics)
    if args.prometheus:
        print(prometheus_text(document), end="")
    elif args.spans_tree:
        print(format_span_tree(document), end="")
    else:
        print(format_summary(document), end="")
    return 0


def _render_crowd_summary(document: dict) -> str:
    """Human rendering of a crowd-stream ``--json`` summary document."""
    dropped = document.get("dropped", {})
    lines = [
        f"crowd-stream summary ({document.get('model')}, "
        f"fingerprint {document.get('fingerprint', '')[:16]}…)",
        f"  users        {document.get('users_simulated')}"
        f"/{document.get('user_count')} simulated, "
        f"{document.get('submission_count')} submissions, "
        f"{sum(dropped.values())} dropped",
        f"  cohorts      {document.get('cohorts_completed')}"
        f"/{document.get('cohorts_total')} of {document.get('cohort_size')}",
        f"  score        mean {document.get('score_mean', 0.0):.1f} "
        f"± {document.get('score_std', 0.0):.1f}",
        f"  ambient err  {document.get('ambient_error_mean_c', 0.0):+.2f} C "
        f"± {document.get('ambient_error_std_c', 0.0):.2f} C",
    ]
    raw = document.get("ranking_quality_raw")
    filtered = document.get("ranking_quality_filtered")
    if raw is not None:
        lines.append(f"  ranking ρ    raw {raw:+.2f}")
    if filtered is not None:
        lines.append(
            f"  ranking ρ    filtered {filtered:+.2f} "
            f"({document.get('filtered_count')} kept)"
        )
    if dropped:
        reasons = ", ".join(
            f"{reason}: {count}" for reason, count in sorted(dropped.items())
        )
        lines.append(f"  drops        {reasons}")
    return "\n".join(lines) + "\n"


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs import format_manifest, read_manifest, watch_url

    if args.target.startswith(("http://", "https://")):
        return watch_url(args.target, interval_s=args.interval, once=args.once)
    print(format_manifest(read_manifest(args.target)), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-devices":
            return _cmd_list_devices()
        if args.command == "table1":
            return _cmd_table1()
        if args.command == "run-fleet":
            return _cmd_run_fleet(args)
        if args.command == "table2":
            return _cmd_table2(args)
        if args.command == "estimate-ambient":
            return _cmd_estimate_ambient(args)
        if args.command == "crowd":
            return _cmd_crowd(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "export-fleet":
            return _cmd_export_fleet(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "watch":
            return _cmd_watch(args)
        parser.error(f"unknown command {args.command!r}")  # pragma: no cover
        return 2  # pragma: no cover
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
