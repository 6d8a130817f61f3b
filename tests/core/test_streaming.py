"""Streaming estimators vs exact in-memory computation.

Every estimator in :mod:`repro.core.streaming` is checked against the
batch statistic it approximates, on the shared ``values`` strategy from
:mod:`repro.check.strategies`; permutation-invariance is asserted exactly
where the math guarantees it (counts, extremes, reservoir membership) and
within float tolerance where summation order matters.  The JSON
round-trip tests pin the checkpoint contract: serialize mid-stream,
restore, keep folding — bit-identical to never having stopped.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check.strategies import values
from repro.core.streaming import (
    DEFAULT_QUANTILES,
    BinRecoveryCounter,
    P2Quantile,
    QuantileBank,
    RankingReservoir,
    StreamingMoments,
)
from repro.core.crowd import spearman_rank_correlation
from repro.errors import AnalysisError, ConfigurationError
from repro.rng import derive_stream


def roundtrip(estimator):
    """Serialize through actual JSON text, as the checkpoint file does."""
    state = json.loads(json.dumps(estimator.state_dict()))
    return type(estimator).from_state(state)


class TestStreamingMoments:
    @settings(max_examples=50, deadline=None)
    @given(values)
    def test_matches_numpy(self, xs):
        moments = StreamingMoments()
        for x in xs:
            moments.add(x)
        arr = np.asarray(xs)
        assert moments.count == len(xs)
        assert moments.mean == pytest.approx(float(arr.mean()), rel=1e-9, abs=1e-9)
        assert moments.variance == pytest.approx(
            float(arr.var()), rel=1e-6, abs=1e-6
        )
        assert moments.std == pytest.approx(float(arr.std()), rel=1e-6, abs=1e-6)
        assert moments.min == float(arr.min())
        assert moments.max == float(arr.max())

    @settings(max_examples=50, deadline=None)
    @given(values)
    def test_extremes_permutation_invariant(self, xs):
        forward, backward = StreamingMoments(), StreamingMoments()
        for x in xs:
            forward.add(x)
        for x in reversed(xs):
            backward.add(x)
        # count/min/max are exactly order-free; mean/variance only up to
        # summation order.
        assert forward.count == backward.count
        assert forward.min == backward.min
        assert forward.max == backward.max
        assert forward.mean == pytest.approx(backward.mean, rel=1e-9, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(values, values)
    def test_json_roundtrip_continuation_is_bit_identical(self, head, tail):
        uninterrupted = StreamingMoments()
        for x in head + tail:
            uninterrupted.add(x)
        resumed = StreamingMoments()
        for x in head:
            resumed.add(x)
        resumed = roundtrip(resumed)
        for x in tail:
            resumed.add(x)
        assert resumed.state_dict() == uninterrupted.state_dict()

    def test_empty(self):
        moments = StreamingMoments()
        assert moments.count == 0
        assert moments.variance == 0.0
        assert math.isinf(moments.min)
        assert roundtrip(moments).state_dict() == moments.state_dict()


class TestP2Quantile:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from(DEFAULT_QUANTILES),
    )
    def test_exact_up_to_five_samples(self, xs, q):
        estimator = P2Quantile(q)
        for x in xs:
            estimator.add(x)
        assert estimator.estimate() == pytest.approx(
            float(np.quantile(np.asarray(xs), q)), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("q", DEFAULT_QUANTILES)
    def test_tracks_uniform_stream(self, q):
        rng = derive_stream(0, "test", "p2", str(q))
        xs = rng.uniform(0.0, 100.0, size=2000)
        estimator = P2Quantile(q)
        for x in xs:
            estimator.add(x)
        exact = float(np.quantile(xs, q))
        assert estimator.estimate() == pytest.approx(exact, abs=3.0)
        assert float(xs.min()) <= estimator.estimate() <= float(xs.max())

    @settings(max_examples=30, deadline=None)
    @given(values, values)
    def test_json_roundtrip_continuation_is_bit_identical(self, head, tail):
        uninterrupted = P2Quantile(0.5)
        for x in head + tail:
            uninterrupted.add(x)
        resumed = P2Quantile(0.5)
        for x in head:
            resumed.add(x)
        resumed = roundtrip(resumed)
        for x in tail:
            resumed.add(x)
        assert resumed.state_dict() == uninterrupted.state_dict()

    def test_rejects_degenerate_quantiles(self):
        for q in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigurationError):
                P2Quantile(q)

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            P2Quantile(0.5).estimate()


class TestQuantileBank:
    def test_keys_and_estimates(self):
        bank = QuantileBank()
        for x in range(1, 101):
            bank.add(float(x))
        estimates = bank.estimates()
        assert sorted(estimates) == ["p05", "p25", "p50", "p75", "p95"]
        assert estimates["p50"] == pytest.approx(50.5, abs=3.0)
        assert estimates["p05"] < estimates["p50"] < estimates["p95"]

    def test_json_roundtrip(self):
        bank = QuantileBank()
        for x in (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0):
            bank.add(x)
        assert roundtrip(bank).estimates() == bank.estimates()


class TestRankingReservoir:
    @settings(max_examples=50, deadline=None)
    @given(values)
    def test_exact_while_stream_fits(self, xs):
        rng = derive_stream(0, "test", "reservoir")
        state_before = json.dumps(rng.bit_generator.state, default=str)
        reservoir = RankingReservoir(len(xs), rng)
        scores = [float(i) for i in range(len(xs))]
        for truth, score in zip(xs, scores):
            reservoir.add(truth, score)
        assert reservoir.is_exact
        # Filling the reservoir consumes no randomness (the differential
        # gate's precondition for exact small-N agreement).
        assert json.dumps(rng.bit_generator.state, default=str) == state_before
        expected = None
        try:
            expected = spearman_rank_correlation(xs, scores)
        except AnalysisError:
            pass
        assert reservoir.correlation() == (
            pytest.approx(expected) if expected is not None else None
        )

    def test_overflow_keeps_capacity_and_is_deterministic(self):
        def build():
            reservoir = RankingReservoir(
                8, derive_stream(0, "test", "reservoir-overflow")
            )
            for i in range(1000):
                reservoir.add(float(i), float(i % 17))
            return reservoir

        first, second = build(), build()
        assert first.seen == 1000 and not first.is_exact
        assert len(first.state_dict()["pairs"]) == 8
        assert first.state_dict() == second.state_dict()

    def test_json_roundtrip_continuation_is_bit_identical(self):
        rng = derive_stream(0, "test", "reservoir-resume")
        uninterrupted = RankingReservoir(8, rng)
        for i in range(200):
            uninterrupted.add(float(i), float((i * 7) % 31))

        resumed = RankingReservoir(8, derive_stream(0, "test", "reservoir-resume"))
        for i in range(90):
            resumed.add(float(i), float((i * 7) % 31))
        resumed = roundtrip(resumed)
        for i in range(90, 200):
            resumed.add(float(i), float((i * 7) % 31))
        assert resumed.state_dict() == uninterrupted.state_dict()

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ConfigurationError):
            RankingReservoir(2, derive_stream(0, "test", "tiny"))

    def test_too_few_pairs_returns_none(self):
        reservoir = RankingReservoir(8, derive_stream(0, "test", "few"))
        reservoir.add(1.0, 2.0)
        assert reservoir.correlation() is None


class TestBinRecoveryCounter:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        )
    )
    def test_counts_and_means_match_exact(self, pairs):
        counter = BinRecoveryCounter()
        for bin_index, score in pairs:
            counter.add(bin_index, score)
        exact = {}
        for bin_index, score in pairs:
            exact.setdefault(bin_index, []).append(score)
        assert counter.counts == {b: len(v) for b, v in sorted(exact.items())}
        # The per-bin means are what a checkpoint carries.
        for index, moments in counter.state_dict()["bins"].items():
            assert moments["mean"] == pytest.approx(
                float(np.mean(exact[int(index)])), rel=1e-9, abs=1e-9
            )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        )
    )
    def test_counts_permutation_invariant(self, pairs):
        forward, backward = BinRecoveryCounter(), BinRecoveryCounter()
        for bin_index, score in pairs:
            forward.add(bin_index, score)
        for bin_index, score in reversed(pairs):
            backward.add(bin_index, score)
        assert forward.counts == backward.counts

    def test_ordering_quality(self):
        counter = BinRecoveryCounter()
        # Higher bins leakier → faster: a perfectly recovered ordering.
        for bin_index in range(4):
            for _ in range(3):
                counter.add(bin_index, 100.0 + 10.0 * bin_index)
        assert counter.ordering_quality() == pytest.approx(1.0)

    def test_needs_three_bins(self):
        counter = BinRecoveryCounter()
        counter.add(0, 1.0)
        counter.add(1, 2.0)
        assert counter.ordering_quality() is None

    def test_json_roundtrip_continuation_is_bit_identical(self):
        stream = [(i % 5, float((i * 13) % 97)) for i in range(60)]
        uninterrupted = BinRecoveryCounter()
        for bin_index, score in stream:
            uninterrupted.add(bin_index, score)
        resumed = BinRecoveryCounter()
        for bin_index, score in stream[:25]:
            resumed.add(bin_index, score)
        resumed = roundtrip(resumed)
        for bin_index, score in stream[25:]:
            resumed.add(bin_index, score)
        assert resumed.state_dict() == uninterrupted.state_dict()
