"""Online estimators for streaming crowd campaigns (paper §VI at scale).

A million-user crowd study cannot keep a million :class:`Submission`\\ s in
memory just to compute a handful of summary statistics at the end.  This
module provides single-pass estimators whose state is O(1) (or O(bounded
reservoir)) in the number of submissions folded in:

:class:`StreamingMoments`
    Welford's online mean/variance.
:class:`P2Quantile`
    The Jain–Chlamtac P² algorithm: one quantile from five markers.
:class:`QuantileBank`
    A fixed set of P² quantiles sharing one ``add``.
:class:`RankingReservoir`
    Uniform reservoir sampling (Algorithm R) over (truth, score) pairs;
    while the stream fits in the reservoir the Spearman estimate is
    *exact* (and draws nothing from its generator), beyond it the
    estimate is computed over a uniform subsample.
:class:`BinRecoveryCounter`
    Per-voltage-bin submission counts and mean scores, plus a rank
    correlation between bin order and mean score — the §VI "can the crowd
    recover the bins?" question, incrementally.

Every estimator round-trips through :meth:`state_dict` /
:meth:`from_state` **bit-identically**: the state is plain JSON-safe
Python (floats survive ``json`` exactly via shortest-repr round-trip, and
generator states are carried as ``bit_generator.state`` dicts), which is
what makes checkpoint/resume of a streaming campaign reproduce the
uninterrupted run exactly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, ConfigurationError

__all__ = [
    "StreamingMoments",
    "P2Quantile",
    "QuantileBank",
    "RankingReservoir",
    "BinRecoveryCounter",
]


class StreamingMoments:
    """Welford's single-pass mean and variance."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation in."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def variance(self) -> float:
        """Population variance of everything folded so far."""
        return self._m2 / self.count if self.count > 0 else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self._m2,
            "min": None if math.isinf(self.min) else self.min,
            "max": None if math.isinf(self.max) else self.max,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "StreamingMoments":
        inst = cls()
        inst.count = int(state["count"])
        inst.mean = float(state["mean"])
        inst._m2 = float(state["m2"])
        inst.min = math.inf if state["min"] is None else float(state["min"])
        inst.max = -math.inf if state["max"] is None else float(state["max"])
        return inst


class P2Quantile:
    """One online quantile via the P² algorithm (Jain & Chlamtac 1985).

    Five markers track (min, two intermediates, the target quantile, max);
    marker heights move by piecewise-parabolic interpolation as
    observations stream past.  The estimate is exact until five values
    have been seen, approximate after — always within [min, max] of the
    observed stream.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigurationError("quantile must be within (0, 1)")
        self.q = q
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._count = 0

    @property
    def count(self) -> int:
        """Observations folded so far."""
        return self._count

    def add(self, value: float) -> None:
        """Fold one observation in."""
        value = float(value)
        self._count += 1
        heights = self._heights
        if self._count <= 5:
            heights.append(value)
            heights.sort()
            return
        positions = self._positions
        q = self.q
        # Locate the cell and bump the extreme markers.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        desired[1] += q / 2.0
        desired[2] += q
        desired[3] += (1.0 + q) / 2.0
        desired[4] += 1.0
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def estimate(self) -> float:
        """Current quantile estimate.

        Exact (linear interpolation of the sorted sample, matching
        ``np.quantile``) while at most five values have been seen.
        """
        if self._count == 0:
            raise AnalysisError("no observations folded yet")
        heights = self._heights
        if self._count <= 5:
            return float(np.quantile(np.asarray(heights), self.q))
        return heights[2]

    def state_dict(self) -> Dict[str, Any]:
        return {
            "q": self.q,
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
            "count": self._count,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "P2Quantile":
        inst = cls(float(state["q"]))
        inst._heights = [float(v) for v in state["heights"]]
        inst._positions = [float(v) for v in state["positions"]]
        inst._desired = [float(v) for v in state["desired"]]
        inst._count = int(state["count"])
        return inst


#: The quantiles a crowd summary reports by default.
DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class QuantileBank:
    """A fixed set of :class:`P2Quantile` estimators fed together."""

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        if not quantiles:
            raise ConfigurationError("QuantileBank needs at least one quantile")
        self._estimators = [P2Quantile(q) for q in quantiles]

    @property
    def count(self) -> int:
        return self._estimators[0].count

    def add(self, value: float) -> None:
        for estimator in self._estimators:
            estimator.add(value)

    def estimates(self) -> Dict[str, float]:
        """``{"p50": ..., ...}`` for every tracked quantile."""
        return {
            f"p{round(est.q * 100):02d}": est.estimate()
            for est in self._estimators
        }

    def state_dict(self) -> Dict[str, Any]:
        return {"estimators": [est.state_dict() for est in self._estimators]}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "QuantileBank":
        inst = cls.__new__(cls)
        inst._estimators = [
            P2Quantile.from_state(sub) for sub in state["estimators"]
        ]
        return inst


class RankingReservoir:
    """Bounded uniform sample of (truth, score) pairs for Spearman's ρ.

    Algorithm R: the k-th pair replaces a random reservoir slot with
    probability capacity/k.  While the stream still fits (``seen <=
    capacity``) the reservoir holds *every* pair, no randomness is
    consumed, and :meth:`correlation` equals the exact full-stream
    Spearman — which is what lets the differential harness gate the
    streamed pipeline against the serial one bit-for-bit at small N.
    """

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity < 3:
            raise ConfigurationError("reservoir capacity must be at least 3")
        self.capacity = capacity
        self._rng = rng
        self._pairs: List[Tuple[float, float]] = []
        self.seen = 0

    def add(self, truth: float, score: float) -> None:
        """Offer one pair to the reservoir."""
        self.seen += 1
        if len(self._pairs) < self.capacity:
            self._pairs.append((float(truth), float(score)))
            return
        slot = int(self._rng.integers(0, self.seen))
        if slot < self.capacity:
            self._pairs[slot] = (float(truth), float(score))

    @property
    def is_exact(self) -> bool:
        """Whether the reservoir still holds the entire stream."""
        return self.seen <= self.capacity

    def correlation(self) -> Optional[float]:
        """Spearman's ρ over the held pairs, or ``None`` below 3 pairs
        (or for a degenerate constant sample)."""
        from repro.core.crowd import spearman_rank_correlation

        if len(self._pairs) < 3:
            return None
        truth = [pair[0] for pair in self._pairs]
        scores = [pair[1] for pair in self._pairs]
        try:
            return spearman_rank_correlation(truth, scores)
        except AnalysisError:
            return None

    def state_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "seen": self.seen,
            "pairs": [[a, b] for a, b in self._pairs],
            "rng_state": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RankingReservoir":
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng_state"]
        inst = cls(int(state["capacity"]), rng)
        inst.seen = int(state["seen"])
        inst._pairs = [(float(a), float(b)) for a, b in state["pairs"]]
        return inst


class BinRecoveryCounter:
    """Per-voltage-bin submission counts and score moments.

    The §VI question "does crowd data recover the bins?" needs only one
    count and one running mean per bin — O(bin_count) state however many
    users stream past.  :meth:`ordering_quality` grades how well the
    per-bin mean scores rank the bins themselves.
    """

    def __init__(self) -> None:
        self._moments: Dict[int, StreamingMoments] = {}

    def add(self, bin_index: int, score: float) -> None:
        """Fold one submission's (ground-truth bin, score) in."""
        moments = self._moments.get(bin_index)
        if moments is None:
            moments = self._moments[bin_index] = StreamingMoments()
        moments.add(score)

    @property
    def counts(self) -> Dict[int, int]:
        """Submissions seen per bin, keyed by bin index."""
        return {
            index: self._moments[index].count
            for index in sorted(self._moments)
        }

    def ordering_quality(self) -> Optional[float]:
        """Spearman's ρ between bin index and per-bin mean score.

        Lower bin indices hold higher-V_th (slower, less leaky) silicon,
        so a faithful crowd shows a consistent monotone relation.  Needs
        at least three populated bins; ``None`` otherwise.
        """
        from repro.core.crowd import spearman_rank_correlation

        if len(self._moments) < 3:
            return None
        indices = sorted(self._moments)
        means = [self._moments[i].mean for i in indices]
        try:
            return spearman_rank_correlation(
                [float(i) for i in indices], means
            )
        except AnalysisError:
            return None

    def state_dict(self) -> Dict[str, Any]:
        return {
            "bins": {
                str(index): moments.state_dict()
                for index, moments in sorted(self._moments.items())
            }
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "BinRecoveryCounter":
        inst = cls()
        inst._moments = {
            int(index): StreamingMoments.from_state(sub)
            for index, sub in state["bins"].items()
        }
        return inst
