"""THERMABOX thermal chamber."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, InstrumentError
from repro.instruments.thermabox import Thermabox, ThermaboxConfig


class TestConfig:
    def test_paper_defaults(self):
        config = ThermaboxConfig()
        assert config.target_c == 26.0
        assert config.tolerance_c == 0.5
        assert config.heater_w == 250.0

    def test_deadband_must_fit_in_tolerance(self):
        with pytest.raises(ConfigurationError):
            ThermaboxConfig(tolerance_c=0.5, deadband_c=0.5)

    def test_bad_plant_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermaboxConfig(air_heat_capacity=0.0)
        with pytest.raises(ConfigurationError):
            ThermaboxConfig(heater_w=-5.0)


class TestRegulation:
    def test_holds_band_around_target(self):
        box = Thermabox(initial_temp_c=26.0)
        worst = 0.0
        for _ in range(1800):
            box.step(room_temp_c=22.0, dt=1.0)
            worst = max(worst, abs(box.air_temp_c - 26.0))
        assert worst <= 0.5

    def test_heats_up_from_cold_room(self):
        box = Thermabox(initial_temp_c=22.0)
        for _ in range(3600):
            box.step(room_temp_c=22.0, dt=1.0)
        assert box.is_within_band()
        assert box.heater_duty_seconds > 0.0

    def test_cools_down_from_hot_start(self):
        box = Thermabox(initial_temp_c=30.0)
        for _ in range(3600):
            box.step(room_temp_c=28.0, dt=1.0)
        assert box.is_within_band()
        assert box.cooler_duty_seconds > 0.0

    def test_absorbs_device_load(self):
        # A 4 W phone inside must not push the chamber out of band.
        box = Thermabox(initial_temp_c=26.0)
        for _ in range(1800):
            box.step(room_temp_c=22.0, dt=1.0, load_w=4.0)
        assert box.is_within_band()

    def test_heater_and_cooler_never_both_on(self):
        box = Thermabox(initial_temp_c=24.0)
        for _ in range(600):
            heater, cooler = box.heater_duty_seconds, box.cooler_duty_seconds
            box.step(room_temp_c=22.0, dt=1.0)
            # A step bills its on-time to every actuator that was on.
            assert not (
                box.heater_duty_seconds > heater and box.cooler_duty_seconds > cooler
            )

    def test_noisy_probe_still_regulates(self):
        box = Thermabox(initial_temp_c=26.0, rng=np.random.default_rng(9))
        for _ in range(1200):
            box.step(room_temp_c=23.0, dt=1.0)
        assert box.is_within_band()


class TestCompressorProtection:
    def test_minimum_off_time_respected(self):
        config = ThermaboxConfig(compressor_min_off_s=30.0)
        box = Thermabox(config, initial_temp_c=27.5)
        last_off_time = None
        time = 0.0
        previous_on = False
        restarts = []
        for _ in range(2400):
            box.step(room_temp_c=29.0, dt=1.0)
            time += 1.0
            if box.cooler_on and not previous_on and last_off_time is not None:
                restarts.append(time - last_off_time)
            if previous_on and not box.cooler_on:
                last_off_time = time
            previous_on = box.cooler_on
        assert all(gap >= 30.0 for gap in restarts)


class TestStability:
    def test_wait_until_stable_from_target(self):
        box = Thermabox(initial_temp_c=26.0)
        settle = box.wait_until_stable(room_temp_c=23.0)
        assert settle >= 60.0
        assert box.is_within_band()

    def test_wait_until_stable_timeout(self):
        # A chamber that can never reach its setpoint must raise, not hang:
        # freezing room, weak heater.
        config = ThermaboxConfig(heater_w=1.0, wall_resistance=0.01)
        box = Thermabox(config, initial_temp_c=-20.0)
        with pytest.raises(InstrumentError):
            box.wait_until_stable(room_temp_c=-20.0, timeout_s=120.0)

    def test_bad_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            Thermabox().step(room_temp_c=22.0, dt=0.0)
