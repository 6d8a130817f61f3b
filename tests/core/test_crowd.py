"""Crowdsourced study simulation (paper §VI)."""

import pytest

from repro.check.oracles import run_crowd_study
from repro.core.ambient_estimation import AmbientEstimate
from repro.core.config import AccubenchConfig
from repro.core.crowd import (
    CrowdConfig,
    Submission,
    silicon_ranking_quality,
    spearman_rank_correlation,
    strict_filters,
)
from repro.errors import AnalysisError, ConfigurationError


def submission(serial, score, ambient_est, r2=0.99, leak=1.0, true_ambient=26.0):
    return Submission(
        serial=serial,
        score=score,
        energy_j=500.0,
        ambient_estimate=AmbientEstimate(
            ambient_c=ambient_est, time_constant_s=300.0,
            r_squared=r2, sample_count=100,
        ),
        true_ambient_c=true_ambient,
        true_leak_factor=leak,
    )


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_disagreement(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0

    def test_ties_handled(self):
        rho = spearman_rank_correlation([1, 1, 2, 3], [5, 5, 6, 7])
        assert rho == pytest.approx(1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            spearman_rank_correlation([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(AnalysisError):
            spearman_rank_correlation([1, 2], [2, 1])

    def test_constant_input_rejected(self):
        with pytest.raises(AnalysisError):
            spearman_rank_correlation([1, 1, 1], [1, 2, 3])

    def test_monotone_nonlinear_is_perfect(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [1, 8, 27, 64]) == 1.0


class TestStrictFilters:
    def test_ambient_band(self):
        kept = strict_filters(
            [
                submission("a", 1.0, ambient_est=26.0),
                submission("b", 1.0, ambient_est=35.0),
                submission("c", 1.0, ambient_est=23.0),
            ],
            ambient_band_c=(22.0, 30.0),
        )
        assert [s.serial for s in kept] == ["a", "c"]

    def test_confidence_filter(self):
        kept = strict_filters(
            [
                submission("clean", 1.0, ambient_est=26.0, r2=0.99),
                submission("noisy", 1.0, ambient_est=26.0, r2=0.5),
            ]
        )
        assert [s.serial for s in kept] == ["clean"]

    def test_bad_band_rejected(self):
        with pytest.raises(AnalysisError):
            strict_filters([], ambient_band_c=(30.0, 22.0))


class TestRankingQuality:
    def test_good_data_scores_high(self):
        subs = [
            submission("a", score=1000.0, ambient_est=26.0, leak=0.5),
            submission("b", score=950.0, ambient_est=26.0, leak=1.0),
            submission("c", score=900.0, ambient_est=26.0, leak=1.5),
        ]
        assert silicon_ranking_quality(subs) == 1.0

    def test_inverted_data_scores_low(self):
        subs = [
            submission("a", score=900.0, ambient_est=26.0, leak=0.5),
            submission("b", score=950.0, ambient_est=26.0, leak=1.0),
            submission("c", score=1000.0, ambient_est=26.0, leak=1.5),
        ]
        assert silicon_ranking_quality(subs) == -1.0

    def test_too_few_rejected(self):
        with pytest.raises(AnalysisError):
            silicon_ranking_quality([submission("a", 1.0, 26.0)])


class TestCrowdConfig:
    def test_defaults_valid(self):
        assert CrowdConfig().user_count == 30

    def test_bad_user_count_rejected(self):
        with pytest.raises(ConfigurationError):
            CrowdConfig(user_count=0)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            CrowdConfig(ambient_range_c=(30.0, 20.0))
        with pytest.raises(ConfigurationError):
            CrowdConfig(charge_range=(0.0, 1.0))


class TestRunCrowdStudy:
    @pytest.fixture(scope="class")
    def small_study(self):
        config = CrowdConfig(
            model="Nexus 5",
            user_count=6,
            protocol=AccubenchConfig(
                warmup_s=40.0, workload_s=60.0, cooldown_target_c=42.0,
                cooldown_timeout_s=2400.0, iterations=1, dt=0.25,
                trace_decimation=20,
            ),
            probe_heat_s=60.0,
            probe_observe_s=300.0,
            root_seed=7,
        )
        return run_crowd_study(config)

    def test_everyone_submits(self, small_study):
        assert len(small_study) == 6
        assert len({s.serial for s in small_study}) == 6

    def test_submissions_carry_field_data(self, small_study):
        for s in small_study:
            assert s.score > 0
            assert s.energy_j > 0
            assert s.ambient_estimate.sample_count > 0

    def test_ambient_estimates_track_truth(self, small_study):
        errors = [
            abs(s.ambient_estimate.ambient_c - s.true_ambient_c)
            for s in small_study
        ]
        assert max(errors) < 6.0

    def test_deterministic(self, small_study):
        config = CrowdConfig(
            model="Nexus 5",
            user_count=6,
            protocol=AccubenchConfig(
                warmup_s=40.0, workload_s=60.0, cooldown_target_c=42.0,
                cooldown_timeout_s=2400.0, iterations=1, dt=0.25,
                trace_decimation=20,
            ),
            probe_heat_s=60.0,
            probe_observe_s=300.0,
            root_seed=7,
        )
        again = run_crowd_study(config)
        assert [s.score for s in again] == [s.score for s in small_study]
