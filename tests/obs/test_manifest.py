"""Run manifests: schema, round trip, atomic writes, rendering."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    build_manifest,
    fingerprint_payload,
    format_manifest,
    manifest_path_for,
    read_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import MetricsRegistry

FINGERPRINT = fingerprint_payload({"config": {"users": 1024}, "seed": 7})


def sample_manifest(**overrides):
    registry = MetricsRegistry()
    registry.counter("crowd.users").inc(1024)
    with registry.span("crowd.stream"):
        pass
    manifest = build_manifest(
        "crowd-stream",
        FINGERPRINT,
        20190324,
        registry=registry,
        status={"state": "complete", "tasks": {"completed": 4, "total": 4}},
        result={"users_simulated": 1024},
        extra={"checkpoint_path": "/tmp/ck.json"},
    )
    manifest.update(overrides)
    return manifest


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = fingerprint_payload({"x": 1, "y": 2})
        b = fingerprint_payload({"y": 2, "x": 1})
        assert a == b
        assert len(a) == 64

    def test_sensitive_to_values(self):
        assert fingerprint_payload({"x": 1}) != fingerprint_payload({"x": 2})


class TestBuildAndValidate:
    def test_build_produces_a_valid_document(self):
        manifest = sample_manifest()
        assert validate_manifest(manifest) is manifest
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["fingerprint"] == FINGERPRINT
        assert manifest["root_seed"] == 20190324
        assert manifest["metrics"]["counters"]["crowd.users"] == 1024
        assert "crowd.stream" in manifest["phase_timings"]
        assert manifest["host"]["python"]
        assert manifest["packages"]["repro"]

    def test_disabled_registry_yields_empty_metrics(self):
        manifest = build_manifest(
            "fleet", FINGERPRINT, 1, registry=MetricsRegistry(enabled=False)
        )
        assert manifest["metrics"] == {"counters": {}, "gauges": {}}
        assert manifest["phase_timings"] == {}

    def test_rejects_wrong_format(self):
        with pytest.raises(ObservabilityError):
            validate_manifest(sample_manifest(format="bogus-v9"))

    def test_rejects_missing_field(self):
        manifest = sample_manifest()
        del manifest["host"]
        with pytest.raises(ObservabilityError):
            validate_manifest(manifest)

    def test_rejects_wrong_type(self):
        with pytest.raises(ObservabilityError):
            validate_manifest(sample_manifest(root_seed="not-an-int"))

    def test_rejects_malformed_fingerprint(self):
        with pytest.raises(ObservabilityError):
            validate_manifest(sample_manifest(fingerprint="abc123"))

    def test_git_may_be_null_but_not_scalar(self):
        validate_manifest(sample_manifest(git=None))
        with pytest.raises(ObservabilityError):
            validate_manifest(sample_manifest(git="deadbeef"))


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        manifest = sample_manifest()
        path = write_manifest(manifest, tmp_path / "runs" / "m.json")
        assert path.exists()
        assert read_manifest(path) == manifest

    def test_write_leaves_no_tmp_file(self, tmp_path):
        write_manifest(sample_manifest(), tmp_path / "m.json")
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_failed_dump_keeps_previous_manifest_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = write_manifest(sample_manifest(), tmp_path / "m.json")
        before = path.read_bytes()

        def failing_dump(document, fp, **kwargs):
            fp.write('{"format": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            write_manifest(sample_manifest(root_seed=8), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_stale_fixed_temp_file_is_not_clobbered(self, tmp_path):
        stale = tmp_path / "m.json.tmp"
        stale.write_text("another writer's half-written manifest")
        manifest = sample_manifest()
        path = write_manifest(manifest, tmp_path / "m.json")
        assert stale.read_text() == "another writer's half-written manifest"
        assert read_manifest(path) == manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.json", "m.json.tmp",
        ]

    def test_write_refuses_invalid_document(self, tmp_path):
        with pytest.raises(ObservabilityError):
            write_manifest({"format": "bogus"}, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_read_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ObservabilityError):
            read_manifest(path)

    def test_read_rejects_missing_file(self, tmp_path):
        with pytest.raises(ObservabilityError):
            read_manifest(tmp_path / "absent.json")

    def test_document_is_json_serializable(self):
        json.dumps(sample_manifest())


class TestPaths:
    def test_manifest_lives_beside_its_subject(self):
        assert str(manifest_path_for("/runs/ck.json")).endswith(
            "/runs/ck.json.manifest.json"
        )


class TestFormat:
    def test_renders_the_key_facts(self):
        text = format_manifest(sample_manifest())
        assert "crowd-stream run manifest" in text
        assert FINGERPRINT[:16] in text
        assert "20190324" in text
        assert "crowd.stream" in text
        assert "crowd.users" in text

    def test_tolerates_missing_git(self):
        text = format_manifest(sample_manifest(git=None))
        assert "unknown" in text
