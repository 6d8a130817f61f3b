"""The A/B harness: pairings, experiment diffs, trace diffs."""

import pytest

from repro.check.differential import (
    BATCH_SPEC,
    EXACT_SPEC,
    FAST_FORWARD_SPEC,
    MIXED_FLEET_LABEL,
    MIXED_FLEET_MODELS,
    SOLVER_SPEC,
    Pairing,
    ToleranceSpec,
    Tolerance,
    batch_invariants_pairing,
    batch_pairing,
    batch_memory_bound_pairing,
    batch_skin_throttle_pairing,
    default_differential_config,
    default_pairings,
    fast_forward_pairing,
    jobs_pairing,
    mixed_fleet_pairing,
    run_pairing,
    solver_pairing,
)
from repro.errors import CheckError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.trace import Trace

MODEL = "Nexus 5"


def tiny_base():
    return default_differential_config(scale=0.02, root_seed=11)


class TestPairings:
    def test_solver_pairing_isolates_the_integrator(self):
        pairing = solver_pairing(tiny_base())
        assert pairing.config_a.accubench.thermal_solver == "euler"
        assert pairing.config_b.accubench.thermal_solver == "expm"
        # Fast-forward off on BOTH sides, so the diff sees only the solver.
        assert not pairing.config_a.accubench.sleep_fast_forward
        assert not pairing.config_b.accubench.sleep_fast_forward
        assert pairing.spec is SOLVER_SPEC

    def test_fast_forward_pairing_fixes_the_solver(self):
        pairing = fast_forward_pairing(tiny_base())
        assert pairing.config_a.accubench.thermal_solver == "expm"
        assert pairing.config_b.accubench.thermal_solver == "expm"
        assert not pairing.config_a.accubench.sleep_fast_forward
        assert pairing.config_b.accubench.sleep_fast_forward
        assert pairing.spec is FAST_FORWARD_SPEC

    def test_jobs_pairing_demands_exact_agreement(self):
        pairing = jobs_pairing(tiny_base(), 2)
        assert pairing.jobs_a == 1 and pairing.jobs_b == 2
        assert pairing.spec is EXACT_SPEC
        # Traces kept and diffed, so the pool's transport is gated too.
        assert pairing.compare_traces
        assert pairing.config_a.accubench.keep_traces
        assert pairing.config_b.accubench.keep_traces

    def test_jobs_pairing_rejects_serial_vs_serial(self):
        with pytest.raises(CheckError):
            jobs_pairing(tiny_base(), 1)

    def test_default_battery_covers_all_fast_paths(self):
        names = [pairing.name for pairing in default_pairings(tiny_base())]
        assert names == [
            "solver",
            "jobs-2",
            "jobs-4",
            "fast-forward",
            "batch",
            "batch-invariants",
            "batch-memory-bound",
            "batch-skin-throttle",
            "batch-mixed-fleet",
        ]

    def test_invariants_pairing_arms_both_sides(self):
        pairing = batch_invariants_pairing(tiny_base())
        assert pairing.config_a.accubench.check_invariants
        assert pairing.config_b.accubench.check_invariants
        assert (pairing.engine_a, pairing.engine_b) == ("serial", "batched")
        assert pairing.config_a == pairing.config_b
        assert pairing.spec is BATCH_SPEC

    def test_memory_bound_pairing_sets_roofline_knobs(self):
        pairing = batch_memory_bound_pairing(tiny_base())
        for config in (pairing.config_a, pairing.config_b):
            assert config.accubench.memory_boundedness == 0.35
            assert config.accubench.utilization == 0.9

    def test_skin_pairing_builds_throttled_fleets(self):
        pairing = batch_skin_throttle_pairing(tiny_base())
        fleet = pairing.fleet_factory(pairing.config_a, MODEL)
        assert len(fleet) == 4
        assert all(device.spec.skin_throttle is not None for device in fleet)

    def test_mixed_pairing_interleaves_models(self):
        pairing = mixed_fleet_pairing(tiny_base())
        assert pairing.models == (MIXED_FLEET_LABEL,)
        fleet = pairing.fleet_factory(pairing.config_b, MIXED_FLEET_LABEL)
        names = [device.spec.name for device in fleet]
        assert set(names) == set(MIXED_FLEET_MODELS)
        # Interleaved, never two same-model units adjacent at the head.
        assert names[0] != names[1]


class TestRunPairing:
    def test_jobs_pairing_passes_and_counts_fields(self):
        report = run_pairing(jobs_pairing(tiny_base(), 2), [MODEL], iterations=1)
        assert report.passed
        # 4 units x 1 iteration x 7 numeric result fields, plus the
        # 4 kept traces.
        assert report.compared_fields == 32
        assert "serial vs jobs=2" in report.render()

    def test_solver_pairing_passes_within_spec(self):
        report = run_pairing(solver_pairing(tiny_base()), [MODEL], iterations=1)
        assert report.passed, report.render()

    def test_batch_pairing_forces_both_engines_on_a_small_fleet(
        self, monkeypatch
    ):
        # The Nexus 6's three units run serial under the runner's own
        # rule, so only a forced engine makes the batched side batch.
        from repro.check import differential

        spans = []
        original = differential.run_fleet_on_engine

        def recorded(*args, **kwargs):
            registry = MetricsRegistry(enabled=True)
            with use_registry(registry):
                result = original(*args, **kwargs)
            spans.append({span["name"] for span in registry.snapshot()["spans"]})
            return result

        monkeypatch.setattr(differential, "run_fleet_on_engine", recorded)
        report = run_pairing(batch_pairing(tiny_base()), ["Nexus 6"], iterations=1)
        assert report.passed, report.render()
        serial, batched = spans
        assert "run_batch" in batched and "run_device" not in batched
        assert "run_device" in serial and "run_batch" not in serial


class TestExperimentDiffs:
    def test_mismatched_fleets_rejected(self):
        from repro.core.results import (
            DeviceResult,
            ExperimentResult,
            IterationResult,
        )

        def experiment(serial):
            iteration = IterationResult(
                model=MODEL,
                serial=serial,
                workload="UNCONSTRAINED",
                iterations_completed=1.0,
                energy_j=1.0,
                mean_power_w=1.0,
                mean_freq_mhz=1.0,
                max_cpu_temp_c=40.0,
                cooldown_s=5.0,
                time_throttled_s=0.0,
            )
            return ExperimentResult(
                model=MODEL,
                workload="UNCONSTRAINED",
                devices=(
                    DeviceResult(
                        model=MODEL, serial=serial,
                        workload="UNCONSTRAINED", iterations=(iteration,),
                    ),
                ),
            )

        with pytest.raises(CheckError):
            EXACT_SPEC.compare_experiment(experiment("a"), experiment("b"))


class TestTraceDiffs:
    def build_trace(self, bump_at=None, bump_channel="temp"):
        trace = Trace(("temp", "power"))
        trace.begin_phase("warmup", 0.0)
        for index in range(10):
            temp = 30.0 + index
            power = 2.0
            if bump_at is not None and index == bump_at:
                if bump_channel == "temp":
                    temp += 1.0
                else:
                    power += 1.0
            trace.append(float(index), (temp, power))
        trace.end_phase(5.0)
        trace.begin_phase("workload", 5.0)
        trace.end_phase(10.0)
        return trace

    def test_identical_traces_agree(self):
        spec = ToleranceSpec(name="trace")
        assert spec.compare_trace(self.build_trace(), self.build_trace()) == []

    def test_first_divergence_reports_time_and_phase(self):
        spec = ToleranceSpec(name="trace")
        found = spec.compare_trace(
            self.build_trace(), self.build_trace(bump_at=7), context="unit-a"
        )
        assert len(found) == 1
        divergence = found[0]
        assert divergence.field == "temp"
        assert divergence.sim_time_s == 7.0
        assert divergence.phase == "workload"
        assert divergence.context == "unit-a"

    def test_early_phase_annotated(self):
        spec = ToleranceSpec(name="trace")
        (divergence,) = spec.compare_trace(
            self.build_trace(), self.build_trace(bump_at=2)
        )
        assert divergence.phase == "warmup"

    def test_tolerance_suppresses_small_drift(self):
        spec = ToleranceSpec(
            name="trace", fields=(("temp", Tolerance(abs_tol=2.0)),)
        )
        assert spec.compare_trace(
            self.build_trace(), self.build_trace(bump_at=7)
        ) == []

    def test_length_mismatch_is_the_first_divergence(self):
        spec = ToleranceSpec(name="trace")
        short = self.build_trace()
        long = self.build_trace()
        long.append(10.0, (40.0, 2.0))
        (divergence,) = spec.compare_trace(short, long)
        assert divergence.field == "len"

    def test_different_channels_rejected(self):
        spec = ToleranceSpec(name="trace")
        with pytest.raises(CheckError):
            spec.compare_trace(self.build_trace(), Trace(("other",)))


class TestPairingValidation:
    def test_pairing_requires_distinct_sides(self):
        base = tiny_base()
        with pytest.raises(CheckError):
            Pairing(
                name="same",
                label_a="a",
                label_b="b",
                config_a=base,
                config_b=base,
                spec=EXACT_SPEC,
            )

    def test_pairing_requires_distinct_engines_on_a_shared_config(self):
        config = batch_pairing(tiny_base()).config_a
        with pytest.raises(CheckError):
            Pairing(
                name="same",
                label_a="a",
                label_b="b",
                config_a=config,
                config_b=config,
                spec=BATCH_SPEC,
                engine_a="batched",
                engine_b="batched",
            )

    def test_pairing_rejects_an_unknown_engine(self):
        base = tiny_base()
        with pytest.raises(CheckError, match="unknown engine"):
            Pairing(
                name="typo",
                label_a="a",
                label_b="b",
                config_a=base,
                config_b=base,
                spec=EXACT_SPEC,
                engine_b="batch",
            )
