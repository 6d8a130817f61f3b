"""Batched fleet execution: eligibility, fallback, sharding, parity.

The batching knob is a performance choice, never a correctness one: any
fleet the batched engine cannot model must silently take the serial
per-unit path, and a batched fleet must return the same results (within
``BATCH_SPEC``) in the same order the serial runner would.
"""

from dataclasses import replace

import pytest

from repro.core.batch_runner import (
    MIN_AUTO_BATCH_UNITS,
    batch_ineligibility_reason,
    run_batch,
)
from repro.core.config import AccubenchConfig
from repro.core.experiments import unconstrained
from repro.core.parallel import BatchTask, DeviceTask
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.device.fleet import synthetic_fleet
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, use_registry

MODEL = "Nexus 5"


def bench(**overrides):
    base = replace(
        AccubenchConfig().scaled(0.02), thermal_solver="expm", iterations=1
    )
    return replace(base, **overrides)


def fleet(count, solver="expm"):
    return synthetic_fleet(
        MODEL, count, thermal_solver=solver, initial_temp_c=26.0
    )


class TestEligibility:
    def test_expm_fleet_is_eligible(self):
        config = CampaignConfig(accubench=bench())
        assert (
            batch_ineligibility_reason(config, unconstrained(), fleet(4)) is None
        )

    def test_euler_config_is_ineligible(self):
        config = CampaignConfig(accubench=bench(thermal_solver="euler"))
        reason = batch_ineligibility_reason(
            config, unconstrained(), fleet(4, solver="euler")
        )
        assert reason == "thermal_solver is not 'expm'"

    def test_no_fast_forward_is_ineligible(self):
        config = CampaignConfig(accubench=bench(sleep_fast_forward=False))
        assert "fast_forward" in batch_ineligibility_reason(
            config, unconstrained(), fleet(4)
        )

    def test_invariant_observers_are_eligible(self):
        config = CampaignConfig(accubench=bench(check_invariants=True))
        assert (
            batch_ineligibility_reason(config, unconstrained(), fleet(4)) is None
        )

    def test_mixed_models_are_eligible(self):
        config = CampaignConfig(accubench=bench())
        mixed = fleet(2) + synthetic_fleet(
            "Nexus 6", 2, thermal_solver="expm", initial_temp_c=26.0
        )
        assert (
            batch_ineligibility_reason(config, unconstrained(), mixed) is None
        )

    def test_run_batch_rejects_ineligible_fleet(self):
        config = CampaignConfig(accubench=bench(thermal_solver="euler"))
        with pytest.raises(ConfigurationError, match="not batchable"):
            run_batch(fleet(4, solver="euler"), unconstrained(), config)


class TestTaskShaping:
    def runner(self, batch=None, jobs=1):
        return CampaignRunner(
            CampaignConfig(accubench=bench(batch=batch), jobs=jobs)
        )

    def test_auto_mode_batches_at_threshold(self):
        runner = self.runner(batch=None)
        tasks = runner._fleet_tasks(
            fleet(MIN_AUTO_BATCH_UNITS), unconstrained(), 1
        )
        assert len(tasks) == 1 and isinstance(tasks[0], BatchTask)

    def test_auto_mode_stays_serial_below_threshold(self):
        runner = self.runner(batch=None)
        tasks = runner._fleet_tasks(
            fleet(MIN_AUTO_BATCH_UNITS - 1), unconstrained(), 1
        )
        assert all(isinstance(task, DeviceTask) for task in tasks)

    def test_forced_on_batches_small_fleets(self):
        runner = self.runner(batch=True)
        tasks = runner._fleet_tasks(fleet(2), unconstrained(), 1)
        assert len(tasks) == 1 and isinstance(tasks[0], BatchTask)

    def test_forced_off_never_batches(self):
        runner = self.runner(batch=False)
        tasks = runner._fleet_tasks(fleet(12), unconstrained(), 4)
        assert all(isinstance(task, DeviceTask) for task in tasks)

    def test_ineligible_fleet_falls_back_even_when_forced_on(self):
        runner = CampaignRunner(
            CampaignConfig(accubench=bench(thermal_solver="euler", batch=True))
        )
        tasks = runner._fleet_tasks(
            fleet(8, solver="euler"), unconstrained(), 1
        )
        assert all(isinstance(task, DeviceTask) for task in tasks)

    def test_jobs_shard_contiguously_in_fleet_order(self):
        runner = self.runner(batch=True, jobs=2)
        units = fleet(10)
        tasks = runner._fleet_tasks(units, unconstrained(), 2)
        assert [isinstance(task, BatchTask) for task in tasks] == [True, True]
        flattened = [dev for task in tasks for dev in task.devices]
        assert [d.serial for d in flattened] == [d.serial for d in units]
        assert min(len(task.devices) for task in tasks) >= MIN_AUTO_BATCH_UNITS


class TestBatchedFleetParity:
    def test_run_fleet_matches_serial_results(self):
        serial = CampaignRunner(
            CampaignConfig(accubench=bench(batch=False))
        ).run_fleet(MODEL, unconstrained(), devices=fleet(4))
        batched = CampaignRunner(
            CampaignConfig(accubench=bench(batch=True))
        ).run_fleet(MODEL, unconstrained(), devices=fleet(4))
        assert serial.serials == batched.serials
        from repro.check.differential import BATCH_SPEC

        assert BATCH_SPEC.compare_experiment(serial, batched) == []

    def test_metrics_schema_matches_serial_keys(self):
        # Both engines run the one phase driver, so the same fleet must
        # publish equal engine tallies and the same phase spans either way.
        snapshots = {}
        for batch in (False, True):
            registry = MetricsRegistry(enabled=True)
            with use_registry(registry):
                CampaignRunner(
                    CampaignConfig(accubench=bench(batch=batch, iterations=2))
                ).run_fleet(MODEL, unconstrained(), devices=fleet(4), jobs=1)
            snapshots[batch] = registry.snapshot()
        serial, snapshot = snapshots[False], snapshots[True]
        for key in (
            "engine.steps",
            "engine.fast_forward_steps",
            "engine.fast_forward_windows",
            "engine.sim_time_s",
            "engine.throttle_events",
            "engine.core_offline_events",
            "protocol.iterations",
            "propagator.cache_hits",
            "thermabox.heater_duty_s",
            "batch.cohort_splits",
        ):
            assert key in snapshot["counters"], key
        engine_keys = sorted(
            key for key in serial["counters"] if key.startswith("engine.")
        )
        assert engine_keys == sorted(
            key for key in snapshot["counters"] if key.startswith("engine.")
        )
        for key in engine_keys + ["protocol.iterations"]:
            assert snapshot["counters"][key] == serial["counters"][key], key
        assert snapshot["counters"]["protocol.iterations"] == 8

        def phase_spans(document):
            return {
                span["name"] for span in document["spans"]
                if span["name"].startswith("phase.")
            }

        assert phase_spans(snapshot) == phase_spans(serial) == {
            "phase.warmup", "phase.cooldown", "phase.workload",
        }
        assert snapshot["gauges"]["batch.size"] == 4
        assert snapshot["gauges"]["batch.steps_per_sec"] > 0


class TestCliPlumbing:
    def test_batch_flag_round_trips_into_config(self):
        from repro.cli import build_parser, _runner

        parser = build_parser()
        for argv, expected in (
            (["run-fleet", MODEL, "--batch"], True),
            (["run-fleet", MODEL, "--no-batch"], False),
            (["run-fleet", MODEL], None),
        ):
            args = parser.parse_args(argv)
            runner = _runner(args)
            assert runner.config.accubench.batch is expected
