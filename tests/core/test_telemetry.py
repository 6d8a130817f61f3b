"""Campaign telemetry: collection is observable and never perturbs physics.

The contract: an enabled metrics registry fills with engine counters,
phase spans and per-task wall times — from serial and pooled runs alike —
while the campaign's :class:`DeviceResult`s stay bit-identical to an
uninstrumented run.
"""

import json

import pytest

from repro.core.config import AccubenchConfig
from repro.core.experiments import unconstrained
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.core.serialize import experiment_to_dict
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.obs import MetricsRegistry, TaskProgress, aggregate_spans, use_registry

MODEL = "Nexus 5"

#: Keys every campaign metrics document must carry, even at zero.
REQUIRED_COUNTERS = (
    "engine.steps",
    "engine.fast_forward_steps",
    "engine.fast_forward_windows",
    "engine.throttle_events",
    "propagator.cache_hits",
    "propagator.cache_misses",
    "thermabox.heater_duty_s",
    "tasks.completed",
)


def tiny_config(jobs: int = 1, **overrides) -> CampaignConfig:
    return CampaignConfig(
        accubench=AccubenchConfig().scaled(0.05), jobs=jobs, **overrides
    )


def fleet_digest(result) -> str:
    return json.dumps(experiment_to_dict(result), sort_keys=True)


def collected_run(jobs: int, progress=None):
    registry = MetricsRegistry(enabled=True)
    runner = CampaignRunner(tiny_config(), progress=progress)
    with use_registry(registry):
        result = runner.run_fleet(MODEL, unconstrained(), iterations=1, jobs=jobs)
    return result, registry.snapshot()


class TestResultsUnperturbed:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_identical_with_and_without_collection(self, jobs):
        baseline = CampaignRunner(tiny_config()).run_fleet(
            MODEL, unconstrained(), iterations=1, jobs=jobs
        )
        collected, _ = collected_run(jobs)
        assert fleet_digest(collected) == fleet_digest(baseline)


class TestDocumentContents:
    def test_serial_run_fills_required_schema(self):
        _, snapshot = collected_run(jobs=1)
        for key in REQUIRED_COUNTERS:
            assert key in snapshot["counters"], key
        assert snapshot["counters"]["engine.steps"] > 0
        assert snapshot["counters"]["tasks.completed"] == len(PAPER_FLEETS[MODEL])
        spans = aggregate_spans(snapshot)
        for phase in ("phase.warmup", "phase.cooldown", "phase.workload"):
            assert spans[phase]["count"] == len(PAPER_FLEETS[MODEL])
            assert spans[phase]["sim_s"] > 0
        # Per-task wall times: one run_device span and one histogram
        # observation per unit.
        assert spans["run_device"]["count"] == len(PAPER_FLEETS[MODEL])
        assert snapshot["histograms"]["task.wall_s"]["count"] == len(
            PAPER_FLEETS[MODEL]
        )

    def test_sim_time_accounting_is_consistent(self):
        _, snapshot = collected_run(jobs=1)
        counters = snapshot["counters"]
        dt = AccubenchConfig().dt
        stepped = counters["engine.steps"] + counters["engine.fast_forward_steps"]
        assert counters["engine.sim_time_s"] == pytest.approx(stepped * dt)


class TestWorkerMerge:
    def test_pool_run_merges_worker_registries(self):
        serial_result, serial_snapshot = collected_run(jobs=1)
        pooled_result, pooled_snapshot = collected_run(jobs=2)
        assert fleet_digest(pooled_result) == fleet_digest(serial_result)
        # The physics counters are deterministic, so the merged document
        # must agree exactly with the serial one.  transport.* counters
        # measure how results travelled, which depends on the backend the
        # jobs count resolves to — excluded like the wall-clock metrics.
        def physics(snapshot):
            return {
                name: value
                for name, value in snapshot["counters"].items()
                if not name.startswith("transport.")
            }

        assert physics(pooled_snapshot) == physics(serial_snapshot)
        assert aggregate_spans(pooled_snapshot).keys() == aggregate_spans(
            serial_snapshot
        ).keys()
        assert (
            pooled_snapshot["histograms"]["task.wall_s"]["count"]
            == serial_snapshot["histograms"]["task.wall_s"]["count"]
        )


class TestProgress:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_event_per_task_in_completion_order(self, jobs):
        events = []
        result, _ = collected_run(jobs, progress=events.append)
        total = len(PAPER_FLEETS[MODEL])
        assert len(events) == total
        assert all(isinstance(event, TaskProgress) for event in events)
        assert [event.completed for event in events] == list(range(1, total + 1))
        assert {event.index for event in events} == set(range(total))
        assert {event.serial for event in events} == set(result.serials)
        assert all(event.total == total for event in events)
        assert all(event.wall_s > 0 for event in events)

    def test_progress_without_metrics_collection(self):
        # --progress must not require --metrics-out.
        events = []
        runner = CampaignRunner(tiny_config(), progress=events.append)
        runner.run_fleet(MODEL, unconstrained(), iterations=1, jobs=1)
        assert len(events) == len(PAPER_FLEETS[MODEL])


class TestPropagatorCacheTelemetry:
    def test_cooldown_heavy_run_reports_high_hit_rate(self):
        # A case-soaked device on the expm solver spends almost all its
        # steps asking for the same two step sizes (engine dt, poll
        # window) — the (Φ, Ψ) cache must be serving nearly every call.
        config = CampaignConfig(
            accubench=AccubenchConfig(
                warmup_s=20.0,
                workload_s=15.0,
                iterations=1,
                cooldown_target_c=32.0,
                thermal_solver="expm",
            ),
            use_thermabox=False,
        )
        device = build_device(
            PAPER_FLEETS[MODEL][0], thermal_solver="expm", initial_temp_c=55.0
        )
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            CampaignRunner(config).run_device(device, unconstrained())
        counters = registry.snapshot()["counters"]
        hits = counters["propagator.cache_hits"]
        misses = counters["propagator.cache_misses"]
        assert hits + misses > 0
        assert hits / (hits + misses) > 0.9
        assert counters["engine.fast_forward_windows"] > 0
        assert counters["engine.fast_forward_steps"] > 0
