"""Scaled-down checks of the paper's headline results.

The benchmark suite reruns these at full protocol length; here a reduced
(but not trivial) configuration verifies the *direction and rough size* of
every headline effect quickly enough for CI.
"""

from dataclasses import replace

import pytest

from repro.core.config import AccubenchConfig
from repro.core.experiments import fixed_frequency, unconstrained
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.device.catalog import device_spec
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.instruments.monsoon import MonsoonPowerMonitor


@pytest.fixture(scope="module")
def runner() -> CampaignRunner:
    # Mid-scale: long enough for real throttling, short enough for tests.
    config = AccubenchConfig(
        warmup_s=90.0,
        workload_s=150.0,
        cooldown_target_c=38.0,
        cooldown_timeout_s=2400.0,
        iterations=2,
        dt=0.25,
        trace_decimation=4,
    )
    return CampaignRunner(CampaignConfig(accubench=config, use_thermabox=False))


@pytest.fixture(scope="module")
def nexus5_results(runner):
    perf = runner.run_fleet("Nexus 5", unconstrained())
    energy = runner.run_fleet("Nexus 5", fixed_frequency(device_spec("Nexus 5")))
    return perf, energy


class TestNexus5Headlines:
    def test_bin0_wins_performance(self, nexus5_results):
        perf, _ = nexus5_results
        assert perf.best_serial == "bin-0"
        assert perf.worst_serial == "bin-3"

    def test_bin0_wins_energy_despite_highest_voltage(self, nexus5_results):
        # The paper's counterintuitive headline (Section IV-A1).
        _, energy = nexus5_results
        assert energy.most_efficient_serial == "bin-0"

    def test_performance_spread_magnitude(self, nexus5_results):
        perf, _ = nexus5_results
        assert 0.05 <= perf.performance_variation <= 0.30

    def test_energy_spread_magnitude(self, nexus5_results):
        _, energy = nexus5_results
        assert 0.10 <= energy.energy_variation <= 0.30

    def test_fixed_frequency_work_equal_across_bins(self, nexus5_results):
        _, energy = nexus5_results
        perfs = list(energy.performances().values())
        assert (max(perfs) - min(perfs)) / min(perfs) < 0.03

    def test_ordering_monotone_with_bin(self, nexus5_results):
        perf, _ = nexus5_results
        scores = [perf.by_serial(f"bin-{i}").performance for i in range(4)]
        assert scores == sorted(scores, reverse=True)


class TestG5VoltageHeadline:
    def test_nominal_voltage_throttles_about_20_percent(self, runner):
        def run_at(voltage):
            config = replace(
                runner.config,
                accubench=replace(runner.config.accubench, iterations=1),
                monsoon_voltage=voltage,
            )
            device = build_device(PAPER_FLEETS["LG G5"][2])
            return CampaignRunner(config).run_device(
                device, unconstrained()
            ).performance

        slow = run_at(3.85)
        fast = run_at(4.40)
        deficit = (fast - slow) / fast
        assert 0.10 <= deficit <= 0.30
