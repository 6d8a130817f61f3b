"""Campaign runner."""

from dataclasses import replace

import pytest

from repro.core.experiments import fixed_frequency, unconstrained
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.device.catalog import device_spec
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.errors import ConfigurationError


def with_protocol(runner, **overrides):
    """A runner over ``runner``'s config with protocol fields replaced."""
    config = runner.config
    return CampaignRunner(
        replace(config, accubench=replace(config.accubench, **overrides))
    )


class TestMonsoonVoltagePolicy:
    def test_default_is_nominal(self, fast_runner):
        assert fast_runner.monsoon_voltage_for(device_spec("Nexus 5")) == 3.8

    def test_g5_gets_max_voltage(self, fast_runner):
        # The paper's Figure 10 lesson: powering the G5 at nominal 3.85 V
        # trips its input-voltage throttle, so the study used 4.4 V.
        assert fast_runner.monsoon_voltage_for(device_spec("LG G5")) == 4.4

    def test_explicit_override_wins(self, fast_config):
        runner = CampaignRunner(
            CampaignConfig(accubench=fast_config, monsoon_voltage=4.2)
        )
        assert runner.monsoon_voltage_for(device_spec("LG G5")) == 4.2


class TestRunDevice:
    def test_runs_requested_iterations(self, fast_runner):
        device = build_device(PAPER_FLEETS["Nexus 5"][0])
        runner = with_protocol(fast_runner, iterations=3)
        result = runner.run_device(device, unconstrained())
        assert len(result.iterations) == 3
        assert result.serial == "bin-0"

    def test_zero_iterations_rejected(self, fast_runner):
        # run_device reads the count from the config; the per-call
        # override lives on run_fleet and is validated there.
        with pytest.raises(ConfigurationError, match="iterations"):
            fast_runner.run_fleet("Nexus 5", unconstrained(), iterations=0)

    def test_connects_monsoon(self, fast_runner):
        device = build_device(PAPER_FLEETS["Nexus 5"][0])
        with_protocol(fast_runner, iterations=1).run_device(device, unconstrained())
        from repro.instruments.monsoon import MonsoonPowerMonitor

        assert isinstance(device.supply, MonsoonPowerMonitor)


class TestRunFleet:
    def test_paper_fleet_by_default(self, fast_runner):
        result = fast_runner.run_fleet("Nexus 5", unconstrained(), iterations=1)
        assert result.serials == ("bin-0", "bin-1", "bin-2", "bin-3")
        assert result.model == "Nexus 5"

    def test_explicit_devices(self, fast_runner):
        devices = [build_device(PAPER_FLEETS["Nexus 5"][i]) for i in (0, 3)]
        result = fast_runner.run_fleet(
            "Nexus 5", unconstrained(), devices=devices, iterations=1
        )
        assert result.serials == ("bin-0", "bin-3")

    def test_bin0_beats_bin3_even_at_test_scale(self, fast_runner):
        devices = [build_device(PAPER_FLEETS["Nexus 5"][i]) for i in (0, 3)]
        # Pre-soak hot so even the short test workload throttles.
        for device in devices:
            device.thermal.settle_to(70.0)
        result = fast_runner.run_fleet(
            "Nexus 5", unconstrained(), devices=devices, iterations=1
        )
        assert result.best_serial == "bin-0"

    def test_fixed_frequency_fleet_does_equal_work(self, fast_runner):
        result = fast_runner.run_fleet(
            "Nexus 5",
            fixed_frequency(device_spec("Nexus 5")),
            iterations=1,
        )
        perfs = list(result.performances().values())
        assert max(perfs) / min(perfs) < 1.05


class TestThermabox:
    def test_chamber_campaign_runs(self, fast_config):
        runner = CampaignRunner(
            CampaignConfig(
                accubench=replace(fast_config, iterations=1), use_thermabox=True
            )
        )
        device = build_device(PAPER_FLEETS["Nexus 5"][0])
        result = runner.run_device(device, unconstrained())
        assert result.performance > 0

    def test_ambient_override_without_chamber(self, fast_config):
        runner = CampaignRunner(
            CampaignConfig(
                accubench=replace(fast_config, iterations=1),
                use_thermabox=False,
                ambient_c=35.0,
            )
        )
        device = build_device(PAPER_FLEETS["Nexus 5"][0], initial_temp_c=35.0)
        result = runner.run_device(device, unconstrained())
        assert result.performance > 0


class TestCampaignConfigValidation:
    """NaN and unphysical environment values fail at construction."""

    NAN = float("nan")

    @pytest.mark.parametrize("field", ["ambient_c", "room_temp_c"])
    def test_nan_environment_rejected_with_field_name(self, field):
        with pytest.raises(ConfigurationError, match=field):
            CampaignConfig(**{field: self.NAN})

    @pytest.mark.parametrize("field", ["ambient_c", "room_temp_c"])
    def test_negative_environment_rejected(self, field):
        with pytest.raises(ConfigurationError):
            CampaignConfig(**{field: -3.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -3.8])
    def test_bad_monsoon_voltage_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            CampaignConfig(monsoon_voltage=bad)

    def test_none_monsoon_voltage_means_per_model_policy(self):
        assert CampaignConfig(monsoon_voltage=None).monsoon_voltage is None
