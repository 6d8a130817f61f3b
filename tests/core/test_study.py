"""Whole-study orchestration and persistence."""

import json

import pytest

from repro.core.results import DeviceResult, ExperimentResult, IterationResult
from repro.core.study import Study
from repro.errors import AnalysisError


def experiment(model, workload, serial_scores):
    devices = []
    for serial, (perf, energy) in serial_scores.items():
        it = IterationResult(
            model=model, serial=serial, workload=workload,
            iterations_completed=perf, energy_j=energy, mean_power_w=1.0,
            mean_freq_mhz=2000.0, max_cpu_temp_c=75.0, cooldown_s=0.0,
            time_throttled_s=0.0,
        )
        devices.append(
            DeviceResult(model=model, serial=serial, workload=workload,
                         iterations=(it,))
        )
    return ExperimentResult(model=model, workload=workload, devices=tuple(devices))


@pytest.fixture
def study() -> Study:
    return Study(
        results={
            "Nexus 5": (
                experiment("Nexus 5", "UNCONSTRAINED",
                           {"bin-0": (900.0, 470.0), "bin-3": (780.0, 585.0)}),
                experiment("Nexus 5", "FIXED-FREQUENCY",
                           {"bin-0": (430.0, 470.0), "bin-3": (430.0, 585.0)}),
            ),
            "Nexus 6": (
                experiment("Nexus 6", "UNCONSTRAINED",
                           {"n6-a": (740.0, 750.0), "n6-b": (735.0, 760.0)}),
                experiment("Nexus 6", "FIXED-FREQUENCY",
                           {"n6-a": (430.0, 750.0), "n6-b": (430.0, 760.0)}),
            ),
        }
    )


class TestStudyApi:
    def test_models(self, study):
        assert study.models == ("Nexus 5", "Nexus 6")

    def test_accessors(self, study):
        assert study.performance("Nexus 5").workload == "UNCONSTRAINED"
        assert study.energy("Nexus 5").workload == "FIXED-FREQUENCY"

    def test_unknown_model_rejected(self, study):
        with pytest.raises(AnalysisError):
            study.performance("Pixel 9")

    def test_empty_study_rejected(self):
        with pytest.raises(AnalysisError):
            Study(results={})

    def test_table2_rows(self, study):
        rows = study.table2_rows()
        soc, count, perf, energy = rows["Nexus 5"]
        assert soc == "SD-800"
        assert count == 2
        assert perf == pytest.approx((900.0 - 780.0) / 780.0)
        assert energy == pytest.approx((585.0 - 470.0) / 585.0)

    def test_efficiency_points_ordered(self, study):
        points = study.efficiency_points()
        assert [p.soc for p in points] == ["SD-800", "SD-805"]


class TestPersistence:
    def test_round_trip(self, study, tmp_path):
        study.save(tmp_path / "study")
        restored = Study.load(tmp_path / "study")
        assert restored.models == study.models
        assert restored.table2_rows() == study.table2_rows()
        assert restored == study

    def test_manifest_contents(self, study, tmp_path):
        manifest_path = study.save(tmp_path / "study")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == "repro-study-v1"
        assert manifest["table2"]["Nexus 5"]["soc"] == "SD-800"

    def test_files_laid_out_per_model(self, study, tmp_path):
        study.save(tmp_path / "study")
        assert (tmp_path / "study" / "nexus-5" / "unconstrained.json").exists()
        assert (tmp_path / "study" / "nexus-6" / "fixed-frequency.json").exists()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(AnalysisError):
            Study.load(tmp_path)

    def test_foreign_format_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(AnalysisError):
            Study.load(tmp_path)


class TestRunStudy:
    def test_runs_requested_models(self, fast_runner):
        study = Study(results=fast_runner.run_study(["Nexus 6"]))
        assert study.models == ("Nexus 6",)
        assert study.performance("Nexus 6").devices[0].performance > 0

    def test_round_trips_through_disk(self, fast_runner, tmp_path):
        study = Study(results=fast_runner.run_study(["Nexus 6"]))
        study.save(tmp_path / "s")
        assert Study.load(tmp_path / "s") == study
