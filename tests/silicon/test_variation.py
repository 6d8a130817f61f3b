"""Die-to-die variation sampling."""

import pytest

from repro.errors import ConfigurationError
from repro.silicon.process import PROCESS_14NM_FINFET, PROCESS_28NM_LP
from repro.silicon.variation import MAX_SIGMA, VariationSampler


@pytest.fixture
def sampler() -> VariationSampler:
    return VariationSampler(process=PROCESS_28NM_LP, root_seed=7)


class TestSample:
    def test_deterministic_per_keys(self, sampler):
        assert sampler.sample("lot", "die-1") == sampler.sample("lot", "die-1")

    def test_distinct_dies_differ(self, sampler):
        assert sampler.sample("lot", "die-1") != sampler.sample("lot", "die-2")

    def test_requires_keys(self, sampler):
        with pytest.raises(ConfigurationError):
            sampler.sample()

    def test_deltas_clamped(self, sampler):
        bound = MAX_SIGMA * PROCESS_28NM_LP.vth_sigma
        for i in range(200):
            profile = sampler.sample("clamp-lot", f"die-{i}")
            assert abs(profile.vth_delta) <= bound + 1e-12

    def test_population_spread_tracks_sigma(self):
        wide = VariationSampler(PROCESS_28NM_LP, root_seed=3)
        narrow = VariationSampler(PROCESS_14NM_FINFET, root_seed=3)
        wide_deltas = [wide.sample("lot", f"die-{i}").vth_delta for i in range(300)]
        narrow_deltas = [
            narrow.sample("lot", f"die-{i}").vth_delta for i in range(300)
        ]
        spread = lambda xs: max(xs) - min(xs)  # noqa: E731
        assert spread(wide_deltas) > spread(narrow_deltas)


class TestFromPercentile:
    def test_median_is_nominal(self, sampler):
        profile = sampler.from_percentile(50.0)
        assert profile.vth_delta == pytest.approx(0.0, abs=1e-12)

    def test_high_percentile_is_fast_and_leaky(self, sampler):
        fast = sampler.from_percentile(95.0)
        assert fast.vth_delta < 0
        assert fast.leak_factor > 1.0

    def test_low_percentile_is_slow(self, sampler):
        slow = sampler.from_percentile(5.0)
        assert slow.vth_delta > 0
        assert slow.speed_factor < 1.0

    def test_monotone_in_percentile(self, sampler):
        deltas = [sampler.from_percentile(p).vth_delta for p in (10, 30, 50, 70, 90)]
        assert deltas == sorted(deltas, reverse=True)

    def test_out_of_range_rejected(self, sampler):
        with pytest.raises(ConfigurationError):
            sampler.from_percentile(101.0)

    def test_extremes_clamped(self, sampler):
        bound = MAX_SIGMA * PROCESS_28NM_LP.vth_sigma
        assert abs(sampler.from_percentile(0.0).vth_delta) <= bound + 1e-12
        assert abs(sampler.from_percentile(100.0).vth_delta) <= bound + 1e-12
