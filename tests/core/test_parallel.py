"""Parallel campaign execution: determinism and plumbing.

The contract under test (see :mod:`repro.core.parallel`) is that the
worker count is invisible in the results: any ``jobs`` value yields
byte-identical output to the serial path.
"""

import json
import os

import pytest

from repro.core.config import AccubenchConfig
from repro.core.experiments import unconstrained
from repro.core.parallel import DeviceTask, run_tasks
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.core.serialize import device_to_dict, experiment_to_dict
from repro.device.fleet import synthetic_fleet
from repro.errors import ConfigurationError

MODEL = "Nexus 5"


def tiny_config(jobs: int = 1) -> CampaignConfig:
    return CampaignConfig(accubench=AccubenchConfig().scaled(0.05), jobs=jobs)


def fleet_digest(result) -> str:
    return json.dumps(experiment_to_dict(result), sort_keys=True)


@pytest.fixture(scope="module")
def serial_fleet_digest() -> str:
    runner = CampaignRunner(tiny_config())
    result = runner.run_fleet(MODEL, unconstrained(), iterations=2, jobs=1)
    return fleet_digest(result)


class TestDeterminism:
    @pytest.mark.parametrize("jobs", [2, 3, 4, 8])
    def test_fleet_identical_across_worker_counts(self, serial_fleet_digest, jobs):
        runner = CampaignRunner(tiny_config())
        result = runner.run_fleet(MODEL, unconstrained(), iterations=2, jobs=jobs)
        assert fleet_digest(result) == serial_fleet_digest

    def test_config_jobs_drives_fleet(self, serial_fleet_digest):
        runner = CampaignRunner(tiny_config(jobs=2))
        result = runner.run_fleet(MODEL, unconstrained(), iterations=2)
        assert fleet_digest(result) == serial_fleet_digest

    def test_caller_devices_identical_across_worker_counts(self):
        digests = []
        for jobs in (1, 3):
            runner = CampaignRunner(tiny_config())
            fleet = synthetic_fleet(MODEL, count=3, root_seed=99)
            result = runner.run_fleet(
                MODEL, unconstrained(), devices=fleet, iterations=2, jobs=jobs
            )
            digests.append(fleet_digest(result))
        assert digests[0] == digests[1]

    def test_synthetic_profiles_independent_of_build_order(self):
        # Per-unit derived streams: the sampled silicon of unit k does not
        # depend on how many units are built or in what order.
        few = synthetic_fleet(MODEL, count=2, root_seed=7)
        many = synthetic_fleet(MODEL, count=5, root_seed=7)
        for a, b in zip(few, many):
            assert a.serial == b.serial
            assert a.profile == b.profile

    def test_run_tasks_identical_across_worker_counts(self):
        # Directly at the run_tasks level: completion order is whatever
        # the pool delivers, but reassembly is by submission index, so
        # the returned list is invariant in both order and values.
        digests = []
        for jobs in (1, 2, 4):
            fleet = synthetic_fleet(MODEL, count=4, root_seed=11)
            tasks = [
                DeviceTask(
                    device=device,
                    experiment=unconstrained(),
                    config=tiny_config(),
                    iterations=1,
                )
                for device in fleet
            ]
            results = run_tasks(tasks, jobs=jobs)
            assert [r.serial for r in results] == [d.serial for d in fleet]
            digests.append(
                [json.dumps(device_to_dict(r), sort_keys=True) for r in results]
            )
        assert digests[0] == digests[1] == digests[2]

    def test_run_model_parallel_matches_serial(self):
        runner = CampaignRunner(tiny_config())
        serial = runner.run_model(MODEL, jobs=1)
        parallel = runner.run_model(MODEL, jobs=2)
        for s, p in zip(serial, parallel):
            assert fleet_digest(s) == fleet_digest(p)

    def test_run_study_parallel_matches_serial(self):
        runner = CampaignRunner(tiny_config())
        serial = runner.run_study(models=[MODEL], jobs=1)
        parallel = runner.run_study(models=[MODEL], jobs=2)
        assert list(serial) == list(parallel)
        for model in serial:
            for s, p in zip(serial[model], parallel[model]):
                assert fleet_digest(s) == fleet_digest(p)


class TestMergedTelemetry:
    def counters_for(self, jobs: int):
        from repro.obs.metrics import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry(enabled=True)) as registry:
            runner = CampaignRunner(tiny_config())
            runner.run_fleet(MODEL, unconstrained(), iterations=1, jobs=jobs)
        counters = registry.snapshot()["counters"]
        # transport.* counters measure how results travelled (pickle vs
        # shared memory), which legitimately depends on the backend the
        # jobs count resolves to — strip them like the wall-clock metrics.
        return {
            name: value
            for name, value in counters.items()
            if not name.startswith("transport.")
        }

    def test_merged_counters_identical_across_worker_counts(self):
        # Worker registries are snapshotted and folded back into the
        # parent; deterministic counts (steps, iterations, draws) must
        # not depend on how the fleet was sharded.  Spans and histograms
        # carry wall-clock durations, so only counters are comparable.
        serial = self.counters_for(1)
        assert serial, "expected the run to record at least one counter"
        assert self.counters_for(3) == serial
        assert self.counters_for(8) == serial


class TestPlumbing:
    def test_negative_jobs_rejected_in_config(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(jobs=-1)

    def test_negative_jobs_rejected_per_call(self):
        runner = CampaignRunner(tiny_config())
        with pytest.raises(ConfigurationError):
            runner.run_fleet(MODEL, unconstrained(), jobs=-2)

    def test_jobs_zero_means_all_cores(self, monkeypatch):
        runner = CampaignRunner(tiny_config())
        assert runner._resolve_jobs(0) >= 1
        # Cores the process may not run on are not "all cores".
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert runner._resolve_jobs(0) == 1
        assert CampaignRunner(tiny_config(jobs=4))._resolve_jobs(None) == 1

    def test_run_tasks_requires_positive_jobs(self):
        with pytest.raises(ConfigurationError):
            run_tasks([], jobs=0)

    def test_serial_path_mutates_caller_devices(self):
        # jobs=1 bypasses the pool: the caller's device objects are the
        # ones that ran, exactly as in the historical serial loop.
        runner = CampaignRunner(tiny_config())
        fleet = synthetic_fleet(MODEL, count=1, root_seed=5)
        runner.run_fleet(MODEL, unconstrained(), devices=fleet, iterations=1, jobs=1)
        assert fleet[0].now_s > 0.0

    def test_pool_path_leaves_caller_devices_untouched(self):
        runner = CampaignRunner(tiny_config())
        fleet = synthetic_fleet(MODEL, count=2, root_seed=5)
        runner.run_fleet(MODEL, unconstrained(), devices=fleet, iterations=1, jobs=2)
        assert all(device.now_s == 0.0 for device in fleet)

    def test_device_task_runs_standalone(self):
        config = tiny_config()
        fleet = synthetic_fleet(MODEL, count=1, root_seed=5)
        task = DeviceTask(
            device=fleet[0],
            experiment=unconstrained(),
            config=config,
            iterations=1,
        )
        (result,) = run_tasks([task], jobs=1)
        assert result.model == MODEL
        assert len(result.iterations) == 1
