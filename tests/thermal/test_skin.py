"""Skin temperature and skin-temperature throttling."""

import pytest

from repro.errors import ConfigurationError
from repro.thermal.skin import SkinModel, SkinThrottle


class TestSkinModel:
    def test_surface_between_case_and_ambient(self):
        model = SkinModel(contact_resistance=0.35)
        surface = model.surface_temp_c(case_temp_c=50.0, ambient_c=26.0)
        assert 26.0 < surface < 50.0

    def test_zero_resistance_is_case_temperature(self):
        model = SkinModel(contact_resistance=0.0)
        assert model.surface_temp_c(47.0, 26.0) == 47.0

    def test_equilibrium_case_stays_ambient(self):
        model = SkinModel()
        assert model.surface_temp_c(26.0, 26.0) == 26.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SkinModel(contact_resistance=1.0)


class TestSkinThrottle:
    @pytest.fixture
    def throttle(self) -> SkinThrottle:
        return SkinThrottle(
            skin_model=SkinModel(contact_resistance=0.0),
            throttle_surface_c=41.0,
            clear_surface_c=38.5,
            poll_interval_s=20.0,
        )

    def test_cool_surface_never_throttles(self, throttle):
        for t in range(0, 200, 20):
            assert throttle.update(35.0, 26.0, float(t)) == 0

    def test_hot_surface_steps_down(self, throttle):
        assert throttle.update(45.0, 26.0, 0.0) == 1
        assert throttle.update(45.0, 26.0, 20.0) == 2

    def test_polls_are_slow(self, throttle):
        assert throttle.update(45.0, 26.0, 0.0) == 1
        # Ten seconds later: no new poll yet.
        assert throttle.update(45.0, 26.0, 10.0) == 1

    def test_hysteresis(self, throttle):
        throttle.update(45.0, 26.0, 0.0)
        assert throttle.update(40.0, 26.0, 20.0) == 1  # inside the band
        assert throttle.update(37.0, 26.0, 40.0) == 0  # below clear

    def test_caps_at_max_steps(self):
        throttle = SkinThrottle(
            skin_model=SkinModel(contact_resistance=0.0), max_steps=3
        )
        for t in range(0, 200, 20):
            steps = throttle.update(60.0, 26.0, float(t))
        assert steps == 3

    def test_contact_resistance_delays_response(self):
        # With a resistive surface layer, the same case temperature reads
        # cooler at the surface, so the throttle engages later.
        direct = SkinThrottle(skin_model=SkinModel(contact_resistance=0.0))
        insulated = SkinThrottle(skin_model=SkinModel(contact_resistance=0.5))
        assert direct.update(42.0, 26.0, 0.0) == 1
        assert insulated.update(42.0, 26.0, 0.0) == 0

    def test_reset(self, throttle):
        throttle.update(45.0, 26.0, 0.0)
        throttle.reset()
        assert throttle.steps == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SkinThrottle(
                skin_model=SkinModel(),
                throttle_surface_c=38.0,
                clear_surface_c=40.0,
            )
