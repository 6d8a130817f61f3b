"""Cooldown-based ambient estimation (paper §VI)."""

import numpy as np
import pytest

from repro.core.ambient_estimation import (
    AmbientEstimate,
    cooldown_probe,
    estimate_ambient,
)
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.errors import AnalysisError
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.thermal.ambient import ConstantAmbient


def synthetic_decay(ambient=26.0, start=60.0, tau=300.0, n=120, dt=5.0, noise=0.0):
    times = np.arange(n) * dt
    temps = ambient + (start - ambient) * np.exp(-times / tau)
    if noise:
        temps = temps + np.random.default_rng(3).normal(0, noise, n)
    return times, temps


class TestSyntheticDecay:
    def test_recovers_exact_asymptote(self):
        times, temps = synthetic_decay(ambient=26.0)
        estimate = estimate_ambient(times, temps)
        assert estimate.ambient_c == pytest.approx(26.0, abs=0.05)
        assert estimate.time_constant_s == pytest.approx(300.0, rel=0.02)
        assert estimate.r_squared > 0.999

    def test_recovers_other_ambients(self):
        for ambient in (10.0, 26.0, 38.0):
            times, temps = synthetic_decay(ambient=ambient)
            estimate = estimate_ambient(times, temps)
            assert estimate.ambient_c == pytest.approx(ambient, abs=0.2)

    def test_noise_tolerated(self):
        times, temps = synthetic_decay(noise=0.05)
        estimate = estimate_ambient(times, temps)
        assert estimate.ambient_c == pytest.approx(26.0, abs=1.0)

    def test_confidence_flag(self):
        times, temps = synthetic_decay()
        assert estimate_ambient(times, temps).is_confident()
        _, noisy = synthetic_decay(noise=3.0)
        estimate = estimate_ambient(times, noisy)
        assert not estimate.is_confident()

    def test_flat_series_rejected(self):
        times = np.arange(50) * 5.0
        temps = np.full(50, 26.0)
        with pytest.raises(AnalysisError):
            estimate_ambient(times, temps)

    def test_heating_series_rejected(self):
        times = np.arange(50) * 5.0
        temps = 26.0 + times * 0.1
        with pytest.raises(AnalysisError):
            estimate_ambient(times, temps)

    def test_too_few_samples_rejected(self):
        times, temps = synthetic_decay(n=6)
        with pytest.raises(AnalysisError):
            estimate_ambient(times, temps, skip_fraction=0.0)

    def test_non_uniform_sampling_rejected(self):
        times = np.array([0.0, 5.0, 11.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0])
        temps = 26.0 + 30.0 * np.exp(-times / 200.0)
        with pytest.raises(AnalysisError):
            estimate_ambient(times, temps, skip_fraction=0.0)

    def test_bad_skip_fraction_rejected(self):
        times, temps = synthetic_decay()
        with pytest.raises(AnalysisError):
            estimate_ambient(times, temps, skip_fraction=1.0)


class TestCooldownProbe:
    """The §VI field estimator: a dedicated heat-then-observe cycle."""

    @staticmethod
    def probe_at(ambient_c: float):
        from repro.thermal.ambient import ConstantAmbient as Room

        device = build_device(PAPER_FLEETS["Nexus 5"][1], initial_temp_c=ambient_c)
        device.connect_supply(MonsoonPowerMonitor(3.8))
        return cooldown_probe(device, Room(ambient_c))

    @pytest.fixture(scope="class")
    def estimates(self):
        return {ambient: self.probe_at(ambient) for ambient in (18.0, 26.0, 34.0)}

    def test_absolute_accuracy_encouraging(self, estimates):
        # "Preliminary results ... are encouraging" (§VI): within a few
        # degrees without any calibration.
        for ambient, estimate in estimates.items():
            assert estimate.ambient_c == pytest.approx(ambient, abs=4.0)

    def test_tracks_ambient_linearly(self, estimates):
        # The residual bias is a common offset: differences between rooms
        # are recovered almost exactly, which is what crowd filtering and
        # ranking actually need.
        ambients = sorted(estimates)
        values = [estimates[a].ambient_c for a in ambients]
        spans = [b - a for a, b in zip(values, values[1:])]
        true_spans = [b - a for a, b in zip(ambients, ambients[1:])]
        for measured, true in zip(spans, true_spans):
            assert measured == pytest.approx(true, abs=1.0)

    def test_fits_are_confident(self, estimates):
        for estimate in estimates.values():
            assert estimate.is_confident(min_r_squared=0.9)
