"""The live telemetry plane wired through the streaming crowd engine.

Same micro field protocol as ``test_crowd_stream.py``; these tests cover
the observation side: the checkpoint's telemetry block and resume
banner, the manifests written next to checkpoints and results, the
progress bus / watchdog wiring, and the contract that none of it moves
a single result bit.
"""

import json
import re
from dataclasses import replace

import pytest

from repro.check.differential import default_crowd_differential_config
from repro.core.crowd_stream import (
    resume_banner,
    run_streaming_crowd_study,
)
from repro.obs.manifest import manifest_path_for, read_manifest
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.progress import ProgressBus
from repro.obs.watch import DropRateSpikeRule, Watchdog


@pytest.fixture(scope="module")
def micro_config():
    return default_crowd_differential_config(user_count=8)


class TestCheckpointTelemetryBlock:
    def test_checkpoint_carries_the_cursor(self, micro_config, tmp_path):
        path = str(tmp_path / "crowd.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=2,
        )
        with open(path) as fp:
            document = json.load(fp)
        telemetry = document["telemetry"]
        assert telemetry["users_done"] == 6
        assert telemetry["cohorts_done"] == 2
        assert telemetry["dropped_total"] == sum(
            document["estimators"]["dropped"].values()
        )
        assert telemetry["users_per_sec"] >= 0.0
        assert telemetry["wall_s"] > 0.0

    def test_telemetry_block_does_not_affect_resume(
        self, micro_config, tmp_path
    ):
        baseline = run_streaming_crowd_study(micro_config, cohort_size=3)
        path = str(tmp_path / "crowd.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=2,
        )
        # Strip the telemetry block: resume must not even look at it.
        with open(path) as fp:
            document = json.load(fp)
        del document["telemetry"]
        with open(path, "w") as fp:
            json.dump(document, fp)
        resumed = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path
        )
        assert resumed.to_dict() == dict(
            baseline.to_dict(), resumed_from_cohort=2
        )


class TestResumeBanner:
    def test_banner_matches_the_pre_kill_state(self, micro_config, tmp_path):
        path = str(tmp_path / "crowd.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=2,
        )
        with open(path) as fp:
            pre_kill = json.load(fp)
        lines = []
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            log=lines.append,
        )
        banner = lines[0]
        assert banner == resume_banner(pre_kill)
        assert banner.startswith("resuming at 6 users, 2 cohorts")
        rate = pre_kill["telemetry"]["users_per_sec"]
        assert f"{rate:.2f} users/s" in banner

    def test_banner_without_telemetry_block_falls_back(self):
        document = {
            "cohorts_done": 4,
            "estimators": {"users_done": 12},
        }
        assert resume_banner(document) == "resuming at 12 users, 4 cohorts"

    def test_fresh_start_prints_no_banner(self, micro_config, tmp_path):
        lines = []
        run_streaming_crowd_study(
            micro_config, cohort_size=3,
            checkpoint_path=str(tmp_path / "fresh.ckpt"),
            stop_after_cohorts=1, log=lines.append,
        )
        assert lines == []


class TestManifests:
    def test_interrupted_and_resumed_manifests_agree_on_identity(
        self, micro_config, tmp_path
    ):
        path = str(tmp_path / "crowd.ckpt")
        partial = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=2,
        )
        manifest_path = manifest_path_for(path)
        interrupted = read_manifest(manifest_path)
        resumed_result = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path
        )
        resumed = read_manifest(manifest_path)
        assert interrupted["fingerprint"] == resumed["fingerprint"]
        assert interrupted["root_seed"] == resumed["root_seed"]
        assert interrupted["fingerprint"] == partial.fingerprint
        assert resumed["fingerprint"] == resumed_result.fingerprint
        assert resumed["kind"] == "crowd-stream"

    def test_final_manifest_embeds_the_result(self, micro_config, tmp_path):
        manifest_path = str(tmp_path / "run.manifest.json")
        result = run_streaming_crowd_study(
            micro_config, cohort_size=3, manifest_path=manifest_path
        )
        manifest = read_manifest(manifest_path)
        assert manifest["kind"] == "crowd-stream"
        assert manifest["result"] == json.loads(
            json.dumps(result.to_dict())
        )
        assert manifest["fingerprint"] == result.fingerprint

    def test_no_manifest_without_a_destination(self, micro_config, tmp_path):
        run_streaming_crowd_study(micro_config, cohort_size=3)
        assert list(tmp_path.iterdir()) == []


class TestResultIdentity:
    def test_result_carries_format_and_fingerprint(self, micro_config):
        result = run_streaming_crowd_study(micro_config, cohort_size=3)
        document = result.to_dict()
        assert document["format"] == "repro-crowd-stream-v1"
        assert re.fullmatch(r"[0-9a-f]{64}", document["fingerprint"])

    def test_fingerprint_tracks_the_configuration(self, micro_config):
        a = run_streaming_crowd_study(micro_config, cohort_size=3)
        b = run_streaming_crowd_study(micro_config, cohort_size=4)
        c = run_streaming_crowd_study(
            replace(micro_config, root_seed=1), cohort_size=3
        )
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint != c.fingerprint


class TestBusAndWatchdog:
    def test_bus_streams_cohorts_and_campaign_cursor(self, micro_config):
        bus = ProgressBus()
        run_streaming_crowd_study(
            micro_config, cohort_size=3, telemetry=bus, checkpoint_every=2,
        )
        status = bus.status()
        assert status["state"] == "complete"
        campaign = status["campaign"]
        assert campaign["users_done"] == 8
        assert campaign["users_total"] == 8
        assert campaign["cohorts_done"] == 3
        assert campaign["cohorts_total"] == 3
        assert campaign["users_per_sec"] > 0
        shards = [s["serial"] for s in status["shards"]]
        assert shards == ["cohort-0000", "cohort-0001", "cohort-0002"]

    def test_checkpoint_cursor_respects_cadence(self, micro_config, tmp_path):
        bus = ProgressBus()
        run_streaming_crowd_study(
            micro_config, cohort_size=3, telemetry=bus,
            checkpoint_path=str(tmp_path / "c.ckpt"), checkpoint_every=2,
        )
        # Cohorts 2 (cadence) and 3 (final) checkpoint; the cursor shows
        # the last one written.
        assert bus.status()["campaign"]["checkpoint_cohort"] == 3

    def test_watchdog_fires_on_systematic_drops(self, micro_config):
        # 50 s probes drop every user — a 100% drop rate the spike rule
        # must catch through the driver's own wiring.
        config = replace(micro_config, user_count=4, probe_observe_s=50.0)
        watchdog = Watchdog([DropRateSpikeRule(threshold=0.5, min_users=2)])
        warnings = []
        result = run_streaming_crowd_study(
            config, cohort_size=2, watchdog=watchdog, log=warnings.append,
        )
        assert watchdog.triggered
        assert watchdog.warnings[0]["rule"] == "drop_rate_spike"
        assert any("drop_rate_spike" in line for line in warnings)
        assert result.submission_count == 0  # the run itself still finished

    def test_observation_does_not_change_results(self, micro_config):
        bare = run_streaming_crowd_study(micro_config, cohort_size=3)
        bus = ProgressBus()
        watchdog = Watchdog([DropRateSpikeRule()])
        observed = run_streaming_crowd_study(
            micro_config, cohort_size=3, telemetry=bus, watchdog=watchdog,
        )
        assert observed.to_dict() == bare.to_dict()


class TestSharedDispatchLoop:
    def test_metrics_count_one_task_per_cohort(self, micro_config):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            result = run_streaming_crowd_study(micro_config, cohort_size=3)
        snapshot = registry.snapshot()
        assert result.cohorts_total == 3
        assert snapshot["counters"]["tasks.completed"] == 3
        assert snapshot["gauges"]["tasks.total"] == 3
        assert snapshot["histograms"]["task.wall_s"]["count"] == 3
