"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_fleet_defaults(self):
        args = build_parser().parse_args(["run-fleet", "Nexus 5"])
        args.experiment == "both"
        assert args.scale == 1.0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_solver_defaults_to_euler(self):
        args = build_parser().parse_args(["run-fleet", "Nexus 5"])
        assert args.solver == "euler"

    def test_solver_expm_accepted(self):
        args = build_parser().parse_args(
            ["run-fleet", "Nexus 5", "--solver", "expm"]
        )
        assert args.solver == "expm"

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-fleet", "Nexus 5", "--solver", "rk4"]
            )


class TestListDevices:
    def test_lists_all_models(self, capsys):
        assert main(["list-devices"]) == 0
        out = capsys.readouterr().out
        for model in ("Nexus 5", "Nexus 6", "Nexus 6P", "LG G5", "Google Pixel"):
            assert model in out

    def test_shows_soc_and_process(self, capsys):
        main(["list-devices"])
        out = capsys.readouterr().out
        assert "SD-800" in out
        assert "28nm-LP" in out
        assert "14nm-FinFET" in out


class TestTable1:
    def test_prints_bins(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Bin-0" in out
        assert "1100" in out


class TestRunFleet:
    def test_unconstrained_run(self, capsys):
        code = main([
            "run-fleet", "Nexus 5",
            "--experiment", "unconstrained",
            "--scale", "0.12", "--iterations", "1", "--no-thermabox",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "performance variation" in out
        assert "bin-0" in out

    def test_json_dump(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main([
            "run-fleet", "Nexus 5",
            "--experiment", "fixed",
            "--scale", "0.12", "--iterations", "1", "--no-thermabox",
            "--json", str(path),
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        assert "fixed-frequency" in payload
        assert payload["fixed-frequency"]["model"] == "Nexus 5"

    def test_expm_solver_end_to_end(self, capsys):
        code = main([
            "run-fleet", "Nexus 5",
            "--experiment", "unconstrained",
            "--scale", "0.12", "--iterations", "1", "--no-thermabox",
            "--solver", "expm",
        ])
        assert code == 0
        assert "performance variation" in capsys.readouterr().out

    def test_unknown_model_is_clean_error(self, capsys):
        code = main([
            "run-fleet", "iPhone 7", "--scale", "0.12", "--no-thermabox",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRunFleetTelemetry:
    RUN = [
        "run-fleet", "Nexus 5",
        "--experiment", "unconstrained",
        "--scale", "0.12", "--iterations", "1", "--no-thermabox",
    ]

    def test_metrics_out_writes_document(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main(self.RUN + ["--metrics-out", str(metrics_path)]) == 0
        assert "wrote metrics to" in capsys.readouterr().out
        document = json.loads(metrics_path.read_text())
        assert document["format"] == "repro-metrics-v1"
        for key in (
            "engine.steps",
            "engine.fast_forward_windows",
            "propagator.cache_hits",
            "tasks.completed",
        ):
            assert key in document["counters"], key
        span_names = {span["name"] for span in document["spans"]}
        assert {"phase.warmup", "phase.cooldown", "phase.workload"} <= span_names
        assert document["histograms"]["task.wall_s"]["count"] == 4

    def test_metrics_collection_leaves_results_unchanged(self, capsys, tmp_path):
        plain = tmp_path / "plain.json"
        instrumented = tmp_path / "instrumented.json"
        main(self.RUN + ["--json", str(plain)])
        main(self.RUN + [
            "--json", str(instrumented),
            "--metrics-out", str(tmp_path / "metrics.json"),
        ])
        assert instrumented.read_text() == plain.read_text()

    def test_progress_lines_on_stderr(self, capsys):
        assert main(self.RUN + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "[1/4]" in err
        assert "[4/4]" in err
        assert "bin-0" in err


class TestOneDispatchPerCommand:
    """Each fleet command sends all its work out in one dispatch."""

    SMALL = ["--scale", "0.05", "--iterations", "1", "--no-thermabox"]

    def test_both_workloads_complete_their_total(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["run-fleet", "Nexus 5", *self.SMALL,
                     "--metrics-out", str(path)]) == 0
        document = json.loads(path.read_text())
        completed = document["counters"]["tasks.completed"]
        assert completed == document["gauges"]["tasks.total"] == 8

    @pytest.mark.parametrize("command", [
        ["run-fleet", "Nexus 5"],
        ["export-fleet", "Nexus 5", "--out", "{tmp}"],
        ["validate", "--models", "Nexus 6", "Nexus 5"],
    ])
    def test_pool_starts_once(self, capsys, tmp_path, monkeypatch, command):
        from repro.core.backends import SharedMemoryBackend

        starts = []
        original = SharedMemoryBackend._ensure_pool

        def counting(self, jobs):
            before = self._workers
            original(self, jobs)
            if self._workers is not before:
                starts.append(jobs)

        monkeypatch.setattr(SharedMemoryBackend, "_ensure_pool", counting)
        argv = [arg.format(tmp=tmp_path) for arg in command]
        main(argv + self.SMALL + ["--jobs", "2"])
        assert starts == [2]


class TestReport:
    def metrics_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        main([
            "run-fleet", "Nexus 5",
            "--experiment", "unconstrained",
            "--scale", "0.12", "--iterations", "1", "--no-thermabox",
            "--metrics-out", str(path),
        ])
        return path

    def test_summary_table(self, capsys, tmp_path):
        path = self.metrics_file(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.steps" in out
        assert "phase.workload" in out
        assert "task.wall_s" in out

    def test_prometheus_dump(self, capsys, tmp_path):
        path = self.metrics_file(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_steps counter" in out
        assert "repro_task_wall_s_count 4" in out

    def test_missing_file_is_clean_error(self, capsys, tmp_path):
        code = main(["report", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTable2:
    def test_subset_study(self, capsys):
        code = main([
            "table2", "--models", "Nexus 6",
            "--scale", "0.12", "--iterations", "1", "--no-thermabox",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SD-805" in out
        assert "Nexus 6" in out


class TestEstimateAmbient:
    def test_probe_reports_estimate(self, capsys):
        code = main([
            "estimate-ambient", "Nexus 5",
            "--ambient", "30", "--observe", "420",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated" in out
        assert "true ambient 30.0" in out

    def test_unknown_model_is_clean_error(self, capsys):
        code = main(["estimate-ambient", "nexus-5"])
        assert code == 1
        assert "unknown fleet" in capsys.readouterr().err


class TestCrowd:
    def test_small_crowd(self, capsys):
        code = main([
            "crowd", "--users", "4", "--scale", "0.3", "--seed", "11",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "submissions from 4 users" in out
        assert "ranking quality" in out

    def test_flagless_crowd_honours_output_flags(self, capsys, tmp_path):
        summary = tmp_path / "x.json"
        metrics = tmp_path / "m.json"
        code = main([
            "crowd", "--users", "3", "--scale", "0.05",
            "--json", str(summary), "--metrics-out", str(metrics),
        ])
        assert code == 0
        assert json.loads(summary.read_text())["user_count"] == 3
        manifest = json.loads((tmp_path / "x.json.manifest.json").read_text())
        assert manifest["kind"] == "crowd-stream"
        assert json.loads(metrics.read_text())["counters"]["crowd.users"] == 3

    def test_streamed_crowd_checkpoint_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "campaign.json"
        base = [
            "crowd", "--users", "6", "--scale", "0.1", "--seed", "11",
            "--checkpoint", str(checkpoint), "--cohort-size", "3",
        ]
        code = main(base + ["--stop-after-cohorts", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(1/2 cohorts of 3)" in out
        assert "resume with --checkpoint" in out
        assert checkpoint.exists()

        code = main(base)
        assert code == 0
        out = capsys.readouterr().out
        assert "6 submissions from 6 users (2/2 cohorts of 3)" in out
        assert "score quantiles (streamed):" in out


class TestTelemetryPlane:
    CROWD = [
        "crowd", "--users", "6", "--scale", "0.1", "--seed", "11",
        "--cohort-size", "3",
    ]
    FLEET = [
        "run-fleet", "Nexus 5", "--experiment", "unconstrained",
        "--scale", "0.12", "--iterations", "1", "--no-thermabox",
    ]

    def test_watch_parser_defaults(self):
        args = build_parser().parse_args(["watch", "http://127.0.0.1:9100"])
        assert args.interval == 2.0
        assert not args.once

    def test_crowd_json_writes_summary_and_manifest(self, capsys, tmp_path):
        summary = tmp_path / "crowd.json"
        assert main(self.CROWD + ["--json", str(summary)]) == 0
        assert "+ manifest" in capsys.readouterr().out
        manifest = tmp_path / "crowd.json.manifest.json"
        assert manifest.exists()

        # report sniffs both document kinds.
        assert main(["report", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "crowd-stream summary" in out
        assert "fingerprint" in out
        assert main(["report", str(manifest)]) == 0
        assert "run manifest" in capsys.readouterr().out

        # watch renders a manifest file directly.
        assert main(["watch", str(manifest)]) == 0
        assert "run manifest" in capsys.readouterr().out

    def test_report_spans_tree(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        main(self.FLEET + ["--metrics-out", str(path)])
        capsys.readouterr()
        assert main(["report", str(path), "--spans-tree"]) == 0
        out = capsys.readouterr().out
        assert "phase.workload" in out
        assert "phase.warmup" in out

    def test_crowd_serve_announces_endpoint(self, capsys):
        assert main(self.CROWD + ["--serve", "0"]) == 0
        assert "serving telemetry at http://" in capsys.readouterr().err

    def test_strict_watchdog_healthy_run_exits_zero(self):
        assert main(self.CROWD + ["--strict-watchdog"]) == 0

    def test_run_fleet_serve_writes_manifest(self, capsys, tmp_path):
        json_path = tmp_path / "fleet.json"
        code = main(self.FLEET + ["--serve", "0", "--json", str(json_path)])
        assert code == 0
        assert "serving telemetry at" in capsys.readouterr().err
        manifest = tmp_path / "fleet.json.manifest.json"
        assert manifest.exists()
        document = json.loads(manifest.read_text())
        assert document["format"] == "repro-manifest-v1"
        assert document["kind"] == "fleet"


class TestExportFleet:
    def test_csv_export(self, capsys, tmp_path):
        code = main([
            "export-fleet", "Nexus 5",
            "--out", str(tmp_path),
            "--scale", "0.12", "--iterations", "1", "--no-thermabox",
        ])
        assert code == 0
        perf_csv = (tmp_path / "nexus-5-performance.csv").read_text()
        assert perf_csv.startswith("unit_index,raw,normalized")
        assert len(perf_csv.strip().splitlines()) == 5  # header + 4 units
        assert (tmp_path / "nexus-5-energy.csv").exists()


class TestValidateCommand:
    def test_single_model_validation(self, capsys):
        # Nexus 6's fleet has near-identical silicon: its bands hold even
        # at a heavily shortened protocol, unlike throttling-driven bands.
        code = main([
            "validate", "--models", "Nexus 6",
            "--scale", "0.3", "--iterations", "2", "--no-thermabox",
        ])
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert code in (0, 1)  # report renders either way
        assert "Nexus 6 energy variation" in out


class TestCheckCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.golden_dir == "tests/golden"
        assert args.scale == 0.05
        assert not args.differential
        assert not args.update_golden

    def test_differential_section_runs(self, capsys):
        code = main([
            "check", "--differential", "--models", "Nexus 5",
            "--scale", "0.02",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "solver" in out
        assert "PASS" in out

    def test_invariants_section_runs(self, capsys):
        code = main([
            "check", "--invariants", "--models", "Nexus 5",
            "--scale", "0.02", "--iterations", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants" in out
        assert "PASS" in out

    def test_update_then_check_golden_round_trip(self, capsys, tmp_path):
        assert main([
            "check", "--update-golden", "--models", "Nexus 5",
            "--golden-dir", str(tmp_path), "--scale", "0.02",
        ]) == 0
        assert "nexus-5.json" in capsys.readouterr().out
        code = main([
            "check", "--golden", "--models", "Nexus 5",
            "--golden-dir", str(tmp_path),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_golden_fails_cleanly(self, capsys, tmp_path):
        code = main([
            "check", "--golden", "--models", "Nexus 5",
            "--golden-dir", str(tmp_path / "void"),
        ])
        assert code == 1
