"""The streaming crowd engine vs the serial §VI reference.

Everything here runs the micro field protocol from the differential
harness (exact solver, short windows) so the whole file stays CI-sized.
The headline contracts:

* streamed submissions replay the serial pipeline draw-for-draw;
* an interrupted campaign resumed from its checkpoint is bit-identical
  to an uninterrupted one;
* worker count never changes results;
* drop accounting matches the serial path reason-for-reason.
"""

import io
import json
import os

import numpy as np
import pytest

from repro.check.differential import default_crowd_differential_config
from repro.check.oracles import run_crowd_study
from repro.core.ambient_estimation import DEFAULT_PROBE_POLL_S
from repro.core.crowd import (
    CrowdConfig,
    crowd_fleet,
    crowd_param_stream,
    plan_users,
    prepare_field_device,
)
from repro.core import crowd_stream
from repro.core.crowd_stream import (
    CrowdEstimators,
    execute_cohort,
    load_checkpoint,
    run_streaming_crowd_study,
)
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    SimulationError,
)
from repro.sim.batch import BatchedWorld
from repro.sim.engine import World
from repro.thermal.ambient import ConstantAmbient

from dataclasses import replace


@pytest.fixture(scope="module")
def micro_config():
    return default_crowd_differential_config(user_count=8)


@pytest.fixture(scope="module")
def full_run(micro_config):
    submissions = []
    result = run_streaming_crowd_study(
        micro_config, cohort_size=3, on_submission=submissions.append
    )
    return result, submissions


class TestStreamedMatchesSerial:
    def test_submissions_replay_serial_draw_for_draw(
        self, micro_config, full_run
    ):
        result, streamed = full_run
        serial = run_crowd_study(micro_config)
        assert [s.serial for s in streamed] == [s.serial for s in serial]
        for a, b in zip(serial, streamed):
            assert b.score == pytest.approx(a.score, rel=1e-9)
            assert b.energy_j == pytest.approx(a.energy_j, rel=1e-9)
            assert b.ambient_estimate.ambient_c == pytest.approx(
                a.ambient_estimate.ambient_c, abs=1e-9
            )
            assert (
                b.ambient_estimate.sample_count
                == a.ambient_estimate.sample_count
            )
            assert b.true_ambient_c == a.true_ambient_c
            assert b.true_leak_factor == a.true_leak_factor
        assert result.dropped == serial.dropped
        assert result.users_simulated == serial.users

    def test_result_summary_shape(self, micro_config, full_run):
        result, streamed = full_run
        assert result.complete
        assert result.cohorts_total == 3  # ceil(8 / 3)
        assert result.user_count == micro_config.user_count
        assert result.submission_count == len(streamed)
        assert sorted(result.score_quantiles) == [
            "p05", "p25", "p50", "p75", "p95",
        ]
        document = json.loads(json.dumps(result.to_dict()))
        assert document["users_simulated"] == micro_config.user_count

    def test_jobs_do_not_change_results(self, micro_config, full_run):
        result, _ = full_run
        parallel = run_streaming_crowd_study(
            micro_config, cohort_size=3, jobs=2
        )
        assert parallel.to_dict() == result.to_dict()


class TestCheckpointResume:
    def test_interrupt_and_resume_is_bit_identical(
        self, micro_config, full_run, tmp_path
    ):
        result, _ = full_run
        path = str(tmp_path / "crowd.ckpt")
        partial = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=2,
        )
        assert not partial.complete
        assert partial.cohorts_completed == 2
        assert os.path.exists(path)
        resumed = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path
        )
        assert resumed.complete
        assert resumed.resumed_from_cohort == 2
        expected = dict(result.to_dict(), resumed_from_cohort=2)
        assert resumed.to_dict() == expected

    def test_checkpoint_is_valid_json_with_rng_cursor(
        self, micro_config, tmp_path
    ):
        path = str(tmp_path / "crowd.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=1,
        )
        with open(path) as fp:
            document = json.load(fp)
        assert document["cohorts_done"] == 1
        # The stored cursor equals the parameter stream advanced past
        # exactly the folded cohort's users (2 uniforms per user).
        rng = crowd_param_stream(micro_config)
        plan_users(micro_config, rng, 0, 3)
        assert document["param_rng_state"] == json.loads(
            json.dumps(rng.bit_generator.state)
        )
        restored = CrowdEstimators.from_state(document["estimators"])
        assert restored.users_done == 3

    def test_mismatched_fingerprint_refuses(self, micro_config, tmp_path):
        path = str(tmp_path / "crowd.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=1,
        )
        other = replace(micro_config, user_count=9)
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(other, cohort_size=3, checkpoint_path=path)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path, "not-the-fingerprint")

    def test_truncated_checkpoint_refuses_to_resume(self, micro_config, tmp_path):
        path = str(tmp_path / "crowd.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=1,
        )
        with open(path) as fp:
            text = fp.read()
        with open(path, "w") as fp:
            fp.write(text[: len(text) // 2])
        with pytest.raises(ConfigurationError, match="crowd.ckpt"):
            run_streaming_crowd_study(
                micro_config, cohort_size=3, checkpoint_path=path
            )

    @pytest.mark.parametrize("content", ["", "not json", "[1, 2]", "null"])
    def test_foreign_checkpoint_is_a_configuration_error(self, tmp_path, content):
        path = tmp_path / "crowd.ckpt"
        path.write_text(content)
        with pytest.raises(ConfigurationError, match=str(path)):
            load_checkpoint(str(path), "any")

    def test_failed_dump_keeps_previous_checkpoint_and_no_temp_file(
        self, micro_config, tmp_path, monkeypatch
    ):
        path = tmp_path / "crowd.ckpt"
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=str(path),
            stop_after_cohorts=1,
        )
        before = path.read_bytes()
        files = sorted(tmp_path.iterdir())

        def failing_dumps(document):
            raise OSError("disk full")

        monkeypatch.setattr(crowd_stream.json, "dumps", failing_dumps)
        with pytest.raises(OSError, match="disk full"):
            crowd_stream.write_checkpoint(
                str(path), "fingerprint", 2, CrowdEstimators(root_seed=0), {}
            )
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == files

    def test_checkpoint_bytes_are_the_json_encoding(self, micro_config, tmp_path):
        path = tmp_path / "crowd.ckpt"
        partial = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=str(path),
            stop_after_cohorts=1,
        )
        document = load_checkpoint(str(path), partial.fingerprint)
        assert path.read_bytes() == json.dumps(document).encode()
        # Written again from its parts, the document encodes to the same
        # bytes the streaming encoder (json.dump) gives, and still loads.
        again = tmp_path / "again.ckpt"
        crowd_stream.write_checkpoint(
            str(again), partial.fingerprint, document["cohorts_done"],
            CrowdEstimators.from_state(document["estimators"]),
            document["param_rng_state"], document["telemetry"],
        )
        streamed = io.StringIO()
        json.dump(document, streamed)
        assert again.read_bytes() == streamed.getvalue().encode()
        assert load_checkpoint(str(again), partial.fingerprint) == document

    def test_stale_fixed_temp_file_is_not_clobbered(self, micro_config, tmp_path):
        path = tmp_path / "crowd.ckpt"
        stale = tmp_path / "crowd.ckpt.tmp"
        stale.write_text("another writer's half-written checkpoint")
        result = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=str(path)
        )
        assert stale.read_text() == "another writer's half-written checkpoint"
        document = load_checkpoint(str(path), result.fingerprint)
        assert document["cohorts_done"] == result.cohorts_total
        temps = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert temps == ["crowd.ckpt.tmp"]


class TestMixedModelResume:
    """Heterogeneous populations checkpoint and resume like uniform ones.

    With ``models`` cycling per user index, every 3-user cohort holds two
    models, so ``execute_cohort`` runs a genuinely mixed
    :class:`~repro.sim.batch.BatchedWorld` — and the checkpoint cursor
    (2 uniforms per user, model choice index-pure) must replay across it.
    """

    def test_mixed_cohorts_resume_bit_identically_for_any_jobs(self, tmp_path):
        config = replace(
            default_crowd_differential_config(user_count=8),
            models=("Nexus 5", "Nexus 6"),
        )
        fleet_models = [device.spec.name for device in crowd_fleet(config)]
        assert fleet_models == ["Nexus 5", "Nexus 6"] * 4

        baseline = run_streaming_crowd_study(config, cohort_size=3)
        assert baseline.complete
        assert baseline.model == "Nexus 5+Nexus 6"

        path = str(tmp_path / "mixed.ckpt")
        partial = run_streaming_crowd_study(
            config, cohort_size=3, checkpoint_path=path, stop_after_cohorts=2
        )
        assert not partial.complete
        assert partial.cohorts_completed == 2
        with open(path) as fp:
            saved = fp.read()

        for jobs in (1, 2, 4):
            job_path = str(tmp_path / f"mixed-jobs{jobs}.ckpt")
            with open(job_path, "w") as fp:
                fp.write(saved)
            resumed = run_streaming_crowd_study(
                config, cohort_size=3, checkpoint_path=job_path, jobs=jobs
            )
            assert resumed.complete
            assert resumed.resumed_from_cohort == 2
            expected = dict(baseline.to_dict(), resumed_from_cohort=2)
            assert resumed.to_dict() == expected


class TestExecutionBackends:
    """The job count picks the backend; it never shows in crowd results
    or checkpoints."""

    def test_backend_does_not_change_results(self, micro_config, full_run):
        # jobs=1 runs cohorts in-process (the full_run reference); more
        # jobs run them on the shared-memory pool.
        result, _ = full_run
        for jobs in (2, 4):
            run = run_streaming_crowd_study(
                micro_config, cohort_size=3, jobs=jobs
            )
            assert run.to_dict() == result.to_dict(), jobs

    def test_kill_and_resume_on_shared_memory_backend(
        self, micro_config, full_run, tmp_path
    ):
        # Interrupt a pooled campaign mid-flight (the checkpoint idiom
        # for a kill: stop after 2 folded cohorts, worker pool torn down
        # with completions still pending) and resume on the pool again —
        # bit-identical to the uninterrupted in-process reference.
        result, _ = full_run
        path = str(tmp_path / "crowd-shm.ckpt")
        partial = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=2, jobs=2,
        )
        assert not partial.complete
        assert partial.cohorts_completed == 2
        resumed = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path, jobs=2,
        )
        assert resumed.complete
        assert resumed.resumed_from_cohort == 2
        expected = dict(result.to_dict(), resumed_from_cohort=2)
        assert resumed.to_dict() == expected

    def test_checkpoint_resumes_across_backends(
        self, micro_config, full_run, tmp_path
    ):
        # Jobs are not part of the checkpoint fingerprint: a checkpoint
        # written in-process (jobs=1) resumes on the shared-memory pool
        # (jobs=2), because transport cannot change the results.
        result, _ = full_run
        path = str(tmp_path / "cross.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=1,
        )
        resumed = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path, jobs=2,
        )
        assert resumed.complete
        assert resumed.resumed_from_cohort == 1
        expected = dict(result.to_dict(), resumed_from_cohort=1)
        assert resumed.to_dict() == expected

    def test_rejects_unknown_backend(self, micro_config):
        # The job count is the only executor setting: fewer than one job
        # is rejected, and no backend name is accepted anywhere.
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, jobs=0)
        with pytest.raises(TypeError):
            run_streaming_crowd_study(micro_config, backend="shared-memory")
        with pytest.raises(TypeError):
            CrowdConfig(backend="shared-memory")

    def test_fingerprint_unchanged_by_backend_removal(self, micro_config):
        # Pinned while CrowdConfig still carried a ``backend`` field (which
        # the fingerprint dropped): checkpoints written before the field
        # was deleted must keep resuming.
        fingerprint = crowd_stream._config_fingerprint(
            micro_config, 3, (22.0, 30.0), 0.9, 1024
        )
        assert fingerprint == (
            "7ef32a40a67afed6804ccc9121c37f168b779cd43d5f238f7a5cb3a9533d853f"
        )


class TestDropAccounting:
    def test_short_observe_drops_everyone_like_serial(self, micro_config):
        # 50 s of 5 s polls → 10 samples, 6 after the 40% head skip —
        # below the fit's floor, so every probe fails identically.
        config = replace(micro_config, user_count=4, probe_observe_s=50.0)
        serial = run_crowd_study(config)
        result = run_streaming_crowd_study(config, cohort_size=2)
        assert serial.dropped == {"too_few_samples": 4}
        assert result.dropped == serial.dropped
        assert result.submission_count == len(serial) == 0
        assert result.users_simulated == 4
        assert result.score_quantiles == {}
        assert result.ranking_quality_raw is None


class TestGuards:
    def test_default_config_runs_without_solver_override(self):
        result = run_streaming_crowd_study(CrowdConfig(user_count=4))
        assert result.complete
        assert result.users_simulated == 4

    def test_requires_exact_solver(self, micro_config):
        euler = replace(
            micro_config,
            protocol=replace(micro_config.protocol, thermal_solver="euler"),
        )
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(euler)

    def test_rejects_bad_knobs(self, micro_config):
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, cohort_size=0)
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, jobs=0)
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, checkpoint_every=0)
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, stop_after_cohorts=0)

    def test_cohort_must_be_contiguous(self, micro_config):
        rng = crowd_param_stream(micro_config)
        users = plan_users(micro_config, rng, 0, 4)
        with pytest.raises(ConfigurationError):
            execute_cohort(
                micro_config, 0, (users[0], users[2], users[3])
            )
        with pytest.raises(ConfigurationError):
            execute_cohort(micro_config, 0, ())


class TestCohortInvariants:
    """``protocol.check_invariants`` reaches the cohort's batched world.

    Seed 403's cohort 1 (users 128-255) holds ``crowd-227``, a Nexus 5
    that runs away past the junction ceiling before its load outgrows
    the battery (a model fault of its own, still open).  Armed
    invariants must name the runaway; unarmed, the battery error stands.
    """

    def cohort(self, check_invariants):
        protocol = replace(
            CrowdConfig().protocol, check_invariants=check_invariants
        )
        config = CrowdConfig(user_count=1024, root_seed=403, protocol=protocol)
        rng = crowd_param_stream(config)
        plan_users(config, rng, 0, 128)
        return config, plan_users(config, rng, 128, 128)

    def test_armed_invariants_catch_the_runaway(self):
        config, users = self.cohort(check_invariants=True)
        with pytest.raises(InvariantViolation, match="temperature-bounds") as caught:
            execute_cohort(config, 1, users)
        assert "crowd-227" in str(caught.value)

    def test_unarmed_cohort_still_hits_the_battery_limit(self):
        config, users = self.cohort(check_invariants=False)
        with pytest.raises(SimulationError, match="battery can deliver"):
            execute_cohort(config, 1, users)


class TestBatchedFieldPhysics:
    """The batched battery bank and asleep probe vs per-unit worlds."""

    def test_probe_temps_and_battery_state_match_serial(self, micro_config):
        config = replace(micro_config, user_count=3)
        rng = crowd_param_stream(config)
        users = plan_users(config, rng, 0, config.user_count)

        serial_temps, serial_soc, serial_energy = [], [], []
        for device, user in zip(crowd_fleet(config), users):
            prepare_field_device(device, user)
            world = World(
                device,
                room=ConstantAmbient(user.ambient_c),
                dt=config.protocol.dt,
                trace_decimation=1,
            )
            device.acquire_wakelock()
            device.start_load()
            world.run_for(config.probe_heat_s)
            device.stop_load()
            device.release_wakelock()
            temps = []
            elapsed = 0.0
            while elapsed < config.probe_observe_s:
                world.run_for(DEFAULT_PROBE_POLL_S)
                elapsed += DEFAULT_PROBE_POLL_S
                temps.append(device.read_cpu_temp())
            serial_temps.append(temps)
            serial_soc.append(device.supply.state_of_charge)
            serial_energy.append(device.supply.energy_drawn_j)

        devices = crowd_fleet(config)
        for device, user in zip(devices, users):
            prepare_field_device(device, user)
        world = BatchedWorld(
            devices,
            room_temp_c=np.array([u.ambient_c for u in users]),
            dt=config.protocol.dt,
            trace_decimation=1,
        )
        world.acquire_wakelock()
        world.start_load()
        world.run_for(config.probe_heat_s)
        world.stop_load()
        world.release_wakelock()
        batched_temps = []
        elapsed = 0.0
        while elapsed < config.probe_observe_s:
            world.run_asleep(DEFAULT_PROBE_POLL_S)
            elapsed += DEFAULT_PROBE_POLL_S
            batched_temps.append(world.read_sensors())
        world.finalize()

        for i, device in enumerate(devices):
            # Quantized sensor reads replay exactly, draw for draw.
            assert [row[i] for row in batched_temps] == serial_temps[i]
            # Battery accounting: the batched probe draws each asleep poll
            # window as one macro draw where the serial engine steps dt by
            # dt — identical up to float summation order.
            assert device.supply.state_of_charge == pytest.approx(
                serial_soc[i], abs=1e-12
            )
            assert device.supply.energy_drawn_j == pytest.approx(
                serial_energy[i], rel=1e-9
            )

    def test_per_unit_rooms_reject_chamber(self, micro_config):
        from repro.instruments.thermabox import (
            BatchedThermabox,
            ThermaboxConfig,
        )
        from repro.errors import SimulationError

        config = replace(micro_config, user_count=2)
        rng = crowd_param_stream(config)
        users = plan_users(config, rng, 0, 2)
        devices = crowd_fleet(config)
        for device, user in zip(devices, users):
            prepare_field_device(device, user)
        chamber = BatchedThermabox(
            ThermaboxConfig(target_c=25.0), count=2, initial_temp_c=25.0
        )
        with pytest.raises(SimulationError):
            BatchedWorld(
                devices,
                room_temp_c=np.array([20.0, 30.0]),
                chamber=chamber,
                dt=0.5,
            )
