"""Batched fleet execution: eligibility, fallback, sharding, parity.

The batching knob is a performance choice, never a correctness one: any
fleet the batched engine cannot model must silently take the serial
per-unit path, and a batched fleet must return the same results (within
``BATCH_SPEC``) in the same order the serial runner would.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import runner as runner_module
from repro.core.batch_runner import (
    MIN_AUTO_BATCH_UNITS,
    batch_ineligibility_reason,
    run_batch,
    shard_bounds,
)
from repro.core.config import AccubenchConfig
from repro.core.experiments import (
    FIXED_FREQUENCY,
    UNCONSTRAINED,
    fixed_frequency,
    unconstrained,
)
from repro.core.parallel import BatchTask, DeviceTask
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.core.serialize import device_to_dict
from repro.device.catalog import device_spec
from repro.device.fleet import synthetic_fleet
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.batch import BatchedWorld

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
        assert batch_ineligibility_reason(config, fleet(4)) is None

    def test_euler_config_is_ineligible(self):
        config = CampaignConfig(accubench=bench(thermal_solver="euler"))
        reason = batch_ineligibility_reason(config, fleet(4, solver="euler"))
        assert reason == "thermal_solver is not 'expm'"

    def test_no_fast_forward_is_ineligible(self):
        config = CampaignConfig(accubench=bench(sleep_fast_forward=False))
        assert "fast_forward" in batch_ineligibility_reason(config, fleet(4))

    def test_invariant_observers_are_eligible(self):
        config = CampaignConfig(accubench=bench(check_invariants=True))
        assert batch_ineligibility_reason(config, fleet(4)) is None

    def test_mixed_models_are_eligible(self):
        # Outside a chamber; a mixed fleet in a THERMABOX runs serial
        # (tests/check/test_eligibility_matrix.py).
        config = CampaignConfig(accubench=bench(), use_thermabox=False)
        mixed = fleet(2) + synthetic_fleet(
            "Nexus 6", 2, thermal_solver="expm", initial_temp_c=26.0
        )
        assert batch_ineligibility_reason(config, mixed) is None

    def test_run_batch_rejects_ineligible_fleet(self):
        config = CampaignConfig(accubench=bench(thermal_solver="euler"))
        with pytest.raises(ConfigurationError, match="not batchable"):
            run_batch(fleet(4, solver="euler"), [unconstrained()] * 4, config)


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

    def test_mixed_fleet_shards_hold_the_minimum(self):
        # Model boundaries never move a cut: a fleet [A, B x 9] at two
        # jobs must not leave A alone in a one-unit batched shard.
        for pattern in [(1, 9), (9, 1), (3, 3, 3, 3), (5, 1, 6), (2, 7, 2), (4, 1)]:
            units = [
                SimpleNamespace(spec=SimpleNamespace(name=f"model-{k}"))
                for k, size in enumerate(pattern)
                for _ in range(size)
            ]
            for jobs in (2, 3, 4):
                bounds = shard_bounds(units, jobs)
                sizes = [b - a for a, b in zip(bounds, bounds[1:])]
                assert bounds[0] == 0 and bounds[-1] == len(units)
                assert min(sizes) >= MIN_AUTO_BATCH_UNITS, (pattern, jobs, bounds)


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


def study_digest(study):
    """Every result scalar and every kept trace byte of a study."""
    parts = []
    for experiments in study.values():
        for experiment in experiments:
            for device in experiment.devices:
                parts.append(json.dumps(device_to_dict(device), sort_keys=True))
                for iteration in device.iterations:
                    parts.append(iteration.trace.samples().tobytes().hex())
                    parts.extend(repr(span) for span in iteration.trace.phases)
    return parts


class TestStudyCohorts:
    """A study batches each model's workload fleets as one cohort."""

    def runner(self, **overrides):
        return CampaignRunner(CampaignConfig(
            accubench=bench(keep_traces=True, **overrides)
        ))

    def test_study_ships_one_batch_task_per_eligible_model(self, monkeypatch):
        shipped = []

        def capture(tasks, jobs, progress=None):
            shipped.extend(tasks)
            raise RuntimeError("captured")

        monkeypatch.setattr(runner_module, "run_tasks", capture)
        with pytest.raises(RuntimeError, match="captured"):
            self.runner().run_study(jobs=2)
        batches = [task for task in shipped if isinstance(task, BatchTask)]
        # Nexus 5 (4 units) and LG G5 (5 units) batch; the 3-unit fleets
        # stay per-unit tasks, two workloads each.
        assert [
            (task.devices[0].spec.name, len(task.devices)) for task in batches
        ] == [("Nexus 5", 8), ("LG G5", 10)]
        for task in batches:
            half = len(task.devices) // 2
            assert [exp.name for exp in task.experiments] == (
                [UNCONSTRAINED] * half + [FIXED_FREQUENCY] * half
            )
            pinned = task.experiments[-1].fixed_freq_mhz
            assert pinned == device_spec(task.devices[0].spec.name).fixed_freq_mhz
        singles = [task for task in shipped if isinstance(task, DeviceTask)]
        assert len(singles) == 3 * 3 * 2
        assert len(shipped) == len(batches) + len(singles)

    def test_merged_cohort_matches_per_workload_cohorts(self):
        runner = self.runner(batch=True)
        merged = runner.run_model(MODEL, jobs=1)
        apart = (
            runner.run_fleet(MODEL, unconstrained(), jobs=1),
            runner.run_fleet(MODEL, fixed_frequency(device_spec(MODEL)), jobs=1),
        )
        from repro.check.differential import BATCH_SPEC

        for joint, alone in zip(merged, apart):
            assert joint.workload == alone.workload
            assert joint.serials == alone.serials
            assert BATCH_SPEC.compare_experiment(alone, joint) == []

    def test_merged_cohort_runs_with_invariants_armed(self):
        armed = self.runner(batch=True, check_invariants=True).run_model(MODEL)
        plain = self.runner(batch=True).run_model(MODEL)
        assert study_digest({MODEL: armed}) == study_digest({MODEL: plain})

    def test_merged_cohort_violation_names_the_workload(self, monkeypatch):
        from repro.check import invariants
        from repro.errors import InvariantViolation

        # Flag only the cohort's last unit: a FIXED-FREQUENCY copy of a
        # serial that the cohort also runs UNCONSTRAINED.
        monkeypatch.setattr(
            invariants.TemperatureBounds, "violated",
            lambda self, temp_c, floor_c: (
                np.arange(np.size(temp_c)) == np.size(temp_c) - 1
            ),
        )
        runner = self.runner(batch=True, check_invariants=True)
        serial = runner._build_fleet(MODEL, None, None)[-1].serial
        with pytest.raises(InvariantViolation) as caught:
            runner.run_model(MODEL)
        message = str(caught.value)
        assert message.startswith("[temperature-bounds] "), message
        assert message.endswith(f"device {serial} ({FIXED_FREQUENCY})"), message

    def test_study_is_byte_identical_at_one_and_two_jobs(self):
        models = [MODEL, "Nexus 6"]
        one = self.runner().run_study(models, jobs=1)
        two = self.runner().run_study(models, jobs=2)
        assert list(one) == list(two) == models
        assert study_digest(one) == study_digest(two)


class TestMixedPins:
    """A unit pinned inside a mixed-pin cohort runs exactly as it would in
    a cohort sharing its pin — through the load-off minimum-frequency
    pin, the load and the governor's own choice."""

    PIN_MHZ = device_spec(MODEL).fixed_freq_mhz

    def run(self, pins):
        world = BatchedWorld(fleet(len(pins)), room_temp_c=26.0)
        world.pin_frequencies(pins)
        world.acquire_wakelock()
        world.run_for(3.0)  # awake, no load: every unit at the bottom rung
        world.start_load()
        world.run_for(30.0)
        world.stop_load()
        world.run_for(3.0)
        world.close()
        return world

    def test_mixed_units_match_uniform_cohorts(self):
        pins = [None, self.PIN_MHZ, None, self.PIN_MHZ]
        mixed = self.run(pins)
        free = self.run([None] * 4)
        pinned = self.run([self.PIN_MHZ] * 4)
        for i, pin in enumerate(pins):
            reference = (free if pin is None else pinned).traces[i]
            assert np.array_equal(
                mixed.traces[i].samples(), reference.samples()
            ), i
        assert mixed.ops_total[0] == free.ops_total[0]
        assert mixed.ops_total[1] == pinned.ops_total[1]
        freq = mixed.traces[0].column("freq")
        ladder = fleet(1)[0].soc.clusters[0].spec.freq_table_mhz
        assert freq[0] == ladder[0]  # load off: the minimum pin
        assert freq.max() > self.PIN_MHZ >= mixed.traces[1].column("freq").max()

    def test_labels_need_one_entry_per_unit(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="one entry per unit"):
            BatchedWorld(fleet(2), room_temp_c=26.0, labels=["only-one"])

    def test_pins_need_one_entry_per_unit(self):
        from repro.errors import SimulationError

        world = BatchedWorld(fleet(2), room_temp_c=26.0)
        with pytest.raises(SimulationError, match="one entry per unit"):
            world.pin_frequencies([None])


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
