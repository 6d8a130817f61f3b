"""Result serialization."""

import pytest

from repro.core.results import DeviceResult, ExperimentResult, IterationResult
from repro.core.serialize import (
    SCHEMA_VERSION,
    experiment_from_dict,
    experiment_to_dict,
    iteration_from_dict,
    iteration_to_dict,
)
from repro.errors import AnalysisError
from repro.sim.trace import Trace


def iteration(serial="bin-0", perf=900.0, with_trace=False):
    trace = None
    if with_trace:
        trace = Trace(["x"])
        trace.record(0.0, x=1.0)
    return IterationResult(
        model="Nexus 5", serial=serial, workload="UNCONSTRAINED",
        iterations_completed=perf, energy_j=470.0, mean_power_w=1.57,
        mean_freq_mhz=2004.0, max_cpu_temp_c=78.2, cooldown_s=60.0,
        time_throttled_s=220.0, trace=trace,
    )


def experiment():
    devices = tuple(
        DeviceResult(
            model="Nexus 5", serial=serial, workload="UNCONSTRAINED",
            iterations=(iteration(serial, perf),),
        )
        for serial, perf in (("bin-0", 900.0), ("bin-3", 775.0))
    )
    return ExperimentResult(
        model="Nexus 5", workload="UNCONSTRAINED", devices=devices
    )


class TestIterationRoundTrip:
    def test_round_trip(self):
        original = iteration()
        assert iteration_from_dict(iteration_to_dict(original)) == original

    def test_trace_is_dropped(self):
        data = iteration_to_dict(iteration(with_trace=True))
        assert "trace" not in data

    def test_missing_field_rejected(self):
        data = iteration_to_dict(iteration())
        del data["energy_j"]
        with pytest.raises(AnalysisError):
            iteration_from_dict(data)


class TestExperimentRoundTrip:
    def test_round_trip(self):
        original = experiment()
        restored = experiment_from_dict(experiment_to_dict(original))
        assert restored == original

    def test_summary_keys_present(self):
        data = experiment_to_dict(experiment())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["summary"]["best_serial"] == "bin-0"
        assert data["summary"]["performance_variation"] == pytest.approx(
            (900.0 - 775.0) / 775.0
        )

    def test_restored_properties_recomputed(self):
        restored = experiment_from_dict(experiment_to_dict(experiment()))
        assert restored.best_serial == "bin-0"
        assert restored.performance_variation > 0.1

    def test_unsupported_schema_rejected(self):
        data = experiment_to_dict(experiment())
        data["schema_version"] = 99
        with pytest.raises(AnalysisError):
            experiment_from_dict(data)
