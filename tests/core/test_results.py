"""Result containers."""

import pytest

from repro.core.results import DeviceResult, ExperimentResult, IterationResult
from repro.errors import AnalysisError


def iteration(serial="bin-0", perf=800.0, energy=500.0, **overrides):
    base = dict(
        model="Nexus 5",
        serial=serial,
        workload="UNCONSTRAINED",
        iterations_completed=perf,
        energy_j=energy,
        mean_power_w=energy / 300.0,
        mean_freq_mhz=2000.0,
        max_cpu_temp_c=76.0,
        cooldown_s=120.0,
        time_throttled_s=100.0,
    )
    base.update(overrides)
    return IterationResult(**base)


def device(serial, perfs, energies):
    return DeviceResult(
        model="Nexus 5",
        serial=serial,
        workload="UNCONSTRAINED",
        iterations=tuple(
            iteration(serial, perf=p, energy=e) for p, e in zip(perfs, energies)
        ),
    )


class TestDeviceResult:
    def test_performance_mean(self):
        d = device("bin-0", [800.0, 820.0], [500.0, 510.0])
        assert d.performance == pytest.approx(810.0)

    def test_energy_mean(self):
        d = device("bin-0", [800.0, 820.0], [500.0, 510.0])
        assert d.energy_j == pytest.approx(505.0)

    def test_rsds(self):
        d = device("bin-0", [790.0, 810.0], [495.0, 505.0])
        assert d.performance_rsd > 0.0

    def test_efficiency(self):
        d = device("bin-0", [800.0], [400.0])
        assert d.efficiency_iters_per_kj == pytest.approx(2000.0)

    def test_mean_freq(self):
        d = device("bin-0", [800.0], [400.0])
        assert d.mean_freq_mhz == 2000.0

    def test_empty_iterations_rejected(self):
        with pytest.raises(AnalysisError):
            DeviceResult(
                model="Nexus 5", serial="x", workload="UNCONSTRAINED", iterations=()
            )


class TestExperimentResult:
    @pytest.fixture
    def result(self) -> ExperimentResult:
        return ExperimentResult(
            model="Nexus 5",
            workload="UNCONSTRAINED",
            devices=(
                device("bin-0", [912.0, 908.0], [460.0, 462.0]),
                device("bin-1", [880.0, 884.0], [480.0, 482.0]),
                device("bin-3", [800.0, 796.0], [570.0, 566.0]),
            ),
        )

    def test_serials(self, result):
        assert result.serials == ("bin-0", "bin-1", "bin-3")

    def test_by_serial(self, result):
        assert result.by_serial("bin-1").performance == pytest.approx(882.0)

    def test_by_serial_missing(self, result):
        with pytest.raises(AnalysisError):
            result.by_serial("bin-9")

    def test_performance_variation(self, result):
        assert result.performance_variation == pytest.approx(
            (910.0 - 798.0) / 798.0
        )

    def test_energy_variation(self, result):
        assert result.energy_variation == pytest.approx((568.0 - 461.0) / 568.0)

    def test_best_and_worst(self, result):
        assert result.best_serial == "bin-0"
        assert result.worst_serial == "bin-3"
        assert result.most_efficient_serial == "bin-0"

    def test_performances_dict(self, result):
        assert set(result.performances()) == {"bin-0", "bin-1", "bin-3"}

    def test_mean_performance_rsd(self, result):
        assert 0.0 < result.mean_performance_rsd < 0.02

    def test_empty_devices_rejected(self):
        with pytest.raises(AnalysisError):
            ExperimentResult(model="x", workload="y", devices=())
