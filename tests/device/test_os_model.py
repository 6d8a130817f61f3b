"""OS behaviour model."""

import numpy as np
import pytest

from repro.device.os_model import InputVoltageThrottle, OsBehavior
from repro.errors import ConfigurationError


class TestInputVoltageThrottle:
    def test_caps_below_threshold(self):
        policy = InputVoltageThrottle(threshold_v=4.0, ceiling_mhz=1478.0)
        assert policy.ceiling_for(3.85) == 1478.0

    def test_uncapped_above_threshold(self):
        policy = InputVoltageThrottle(threshold_v=4.0, ceiling_mhz=1478.0)
        assert policy.ceiling_for(4.4) is None

    def test_threshold_is_inclusive(self):
        policy = InputVoltageThrottle(threshold_v=4.0, ceiling_mhz=1478.0)
        assert policy.ceiling_for(4.0) == 1478.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InputVoltageThrottle(threshold_v=0.0, ceiling_mhz=1000.0)
        with pytest.raises(ConfigurationError):
            InputVoltageThrottle(threshold_v=4.0, ceiling_mhz=0.0)


class TestWakelock:
    def test_acquire_release(self):
        os = OsBehavior(background_sigma_w=0.0, steal_sigma=0.0, steal_mean=0.0)
        assert not os.wakelock_held
        os.acquire_wakelock()
        assert os.wakelock_held
        os.release_wakelock()
        assert not os.wakelock_held


class TestBackgroundNoise:
    def test_deterministic_without_rng(self):
        os = OsBehavior(
            background_power_w=0.02, background_sigma_w=0.0,
            steal_sigma=0.0, steal_mean=0.0,
        )
        assert os.background_noise_w() == 0.02

    def test_noise_non_negative(self):
        os = OsBehavior(
            background_power_w=0.005, background_sigma_w=0.05,
            rng=np.random.default_rng(1),
        )
        assert all(os.background_noise_w() >= 0.0 for _ in range(200))

    def test_noise_requires_rng(self):
        with pytest.raises(ConfigurationError):
            OsBehavior(background_sigma_w=0.1, steal_sigma=0.0, steal_mean=0.0)


class TestStealFraction:
    def test_zero_without_rng(self):
        os = OsBehavior(background_sigma_w=0.0, steal_sigma=0.0, steal_mean=0.0)
        assert os.steal_frac(0.0) == 0.0

    def test_piecewise_constant(self):
        os = OsBehavior(rng=np.random.default_rng(2), steal_interval_s=60.0)
        first = os.steal_frac(0.0)
        assert os.steal_frac(30.0) == first
        assert os.steal_frac(59.9) == first

    def test_resamples_after_interval(self):
        os = OsBehavior(rng=np.random.default_rng(2), steal_interval_s=60.0)
        values = {os.steal_frac(t * 60.0) for t in range(30)}
        assert len(values) > 1

    def test_clamped_to_bounds(self):
        os = OsBehavior(
            rng=np.random.default_rng(3),
            steal_mean=0.05, steal_sigma=0.2, steal_max=0.08,
            steal_interval_s=1.0,
        )
        for t in range(300):
            frac = os.steal_frac(float(t))
            assert 0.0 <= frac <= 0.08

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OsBehavior(steal_max=1.0, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            OsBehavior(steal_interval_s=0.0, rng=np.random.default_rng(0))


class TestCpuCeiling:
    def test_no_policy_no_ceiling(self):
        os = OsBehavior(background_sigma_w=0.0, steal_sigma=0.0, steal_mean=0.0)
        assert os.cpu_ceiling_mhz(3.0) is None

    def test_policy_applies(self):
        os = OsBehavior(
            background_sigma_w=0.0, steal_sigma=0.0, steal_mean=0.0,
            voltage_throttle=InputVoltageThrottle(threshold_v=4.0, ceiling_mhz=1478.0),
        )
        assert os.cpu_ceiling_mhz(3.85) == 1478.0
        assert os.cpu_ceiling_mhz(4.4) is None


class TestBlockDraws:
    """Block-read OS draws replay the per-call ``Generator.normal`` draws."""

    @staticmethod
    def per_call(rng, os, times):
        """The per-call draws: each step's steal fraction, then its noise."""
        frac, until, out = 0.0, 0.0, []
        for now in times:
            if now >= until:
                sampled = float(rng.normal(os.steal_mean, os.steal_sigma))
                frac = min(max(sampled, 0.0), os.steal_max)
                until = now + os.steal_interval_s
            noise = os.background_power_w
            noise += float(rng.normal(0.0, os.background_sigma_w))
            out.append((frac, max(0.0, noise)))
        return out

    def test_draws_match_and_hand_back_leaves_the_stream(self):
        os = OsBehavior(rng=np.random.default_rng(5), steal_interval_s=3.0)
        reference = np.random.default_rng(5)
        times = [0.5 * i for i in range(600)]  # crosses block refills
        got = [(os.steal_frac(now), os.background_noise_w()) for now in times]
        assert got == self.per_call(reference, os, times)
        os.hand_back()
        assert os.rng.bit_generator.state == reference.bit_generator.state
        assert os.rng.normal() == reference.normal()

    def test_pickle_hands_back_and_continues_the_stream(self):
        import pickle

        os = OsBehavior(rng=np.random.default_rng(6))
        for _ in range(10):
            os.background_noise_w()
        clone = pickle.loads(pickle.dumps(os))
        reference = np.random.default_rng(6)
        reference.standard_normal(10)
        assert os.rng.bit_generator.state == reference.bit_generator.state
        assert clone.rng.bit_generator.state == reference.bit_generator.state
        assert clone.background_noise_w() == os.background_noise_w()
