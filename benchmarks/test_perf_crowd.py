"""Streaming crowd campaign throughput: cohort-batched vs serial §VI.

Measures the tentpole claim of :mod:`repro.core.crowd_stream`: folding
the §VI field study into fixed-size cohorts advanced through the batched
engine must beat the serial per-user reference by a wide margin while
keeping memory flat in the user count.  Four benches:

* interleaved A/B at N=256 — the serial oracle :func:`run_crowd_study`
  vs streamed :func:`run_streaming_crowd_study` on the identical
  configuration, best-of per arm.  Score agreement gates
  unconditionally (a fast stream that drifts is a bug, not a win); the
  speedup floor is asserted unless ``REPRO_BENCH_SKIP_RATE_ASSERT`` is
  set.
* memory scaling — tracemalloc peak at 2 048 vs 8 192 users with the
  same cohort width must stay flat: O(cohort + estimator), not O(users).
* the 10⁵-user headline — wall-clock, users/sec and peak RSS, recorded
  (shrink with ``REPRO_BENCH_CROWD_USERS`` on slow hosts).
* the 10⁶-user campaign — recorded non-gating, only when
  ``REPRO_BENCH_CROWD_FULL=1`` (tens of minutes on one core).

Results land in ``BENCH_crowd.json`` at the repository root.
"""

from __future__ import annotations

import os
import resource
import time
import tracemalloc

import numpy as np
import pytest

from benchmarks.test_perf_campaign import RETRACT, _merge_results
from repro.check.differential import default_crowd_differential_config
from repro.check.oracles import run_crowd_study
from repro.core.crowd_stream import run_streaming_crowd_study

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_crowd.json")

AB_USERS = 256
AB_REPEATS = 3
MIN_STREAM_SPEEDUP = 4.0
COHORT_SIZE = 256
MEMORY_USERS = (2048, 8192)
HEADLINE_USERS = int(os.environ.get("REPRO_BENCH_CROWD_USERS", "100000"))
FULL_USERS = 1_000_000


def _config(users: int):
    """The micro field protocol shared with the differential harness."""
    return default_crowd_differential_config(user_count=users)


def test_streamed_crowd_speedup():
    # Interleaved A/B so host-load drift cancels; best-of per arm.  Both
    # arms run the identical campaign configuration, so wall-clock per
    # arm is directly comparable.
    config = _config(AB_USERS)
    best = {"serial": float("inf"), "streamed": float("inf")}
    scores = {}
    for _ in range(AB_REPEATS):
        for arm in ("serial", "streamed"):
            start = time.perf_counter()
            if arm == "serial":
                scores[arm] = [s.score for s in run_crowd_study(config)]
            else:
                collected = []
                run_streaming_crowd_study(
                    config,
                    cohort_size=COHORT_SIZE,
                    on_submission=lambda s: collected.append(s.score),
                )
                scores[arm] = collected
            best[arm] = min(best[arm], time.perf_counter() - start)
    speedup = best["serial"] / best["streamed"]
    _merge_results(
        {
            "crowd_ab_users": AB_USERS,
            "crowd_ab_serial_s": round(best["serial"], 3),
            "crowd_ab_streamed_s": round(best["streamed"], 3),
            "crowd_ab_speedup": round(speedup, 3),
            "crowd_ab_users_per_sec": round(AB_USERS / best["streamed"], 1),
        },
        path=RESULTS_PATH,
    )
    print(
        f"\n{AB_USERS}-user crowd: serial {best['serial']:.2f} s, "
        f"streamed {best['streamed']:.2f} s ({speedup:.2f}x, "
        f"{AB_USERS / best['streamed']:,.0f} users/s)"
    )
    # Statistical fidelity gates unconditionally: same submissions, same
    # scores (only BLAS summation-order ulps tolerated).
    assert len(scores["serial"]) == len(scores["streamed"])
    assert np.allclose(scores["serial"], scores["streamed"], rtol=1e-9, atol=0.0)
    if os.environ.get("REPRO_BENCH_SKIP_RATE_ASSERT"):
        pytest.skip("rate floor assertion disabled by environment")
    assert speedup >= MIN_STREAM_SPEEDUP, (
        f"streamed crowd speedup {speedup:.2f}x below "
        f"{MIN_STREAM_SPEEDUP}x at N={AB_USERS}"
    )


def test_streamed_memory_is_o_cohort():
    # 4x the users at the same cohort width must not grow the peak: the
    # stream holds one cohort of worlds plus fixed estimator state.
    peaks = {}
    for users in MEMORY_USERS:
        tracemalloc.start()
        result = run_streaming_crowd_study(
            _config(users), cohort_size=COHORT_SIZE
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.users_simulated == users
        peaks[users] = peak
    small, large = (peaks[users] for users in MEMORY_USERS)
    ratio = large / small
    _merge_results(
        {
            f"crowd_mem_peak_mb[{users}]": round(peaks[users] / 2**20, 2)
            for users in MEMORY_USERS
        }
        | {"crowd_mem_growth_4x_users": round(ratio, 3)},
        path=RESULTS_PATH,
    )
    print(
        f"\npeak traced memory: {small / 2**20:.1f} MB @ {MEMORY_USERS[0]} "
        f"users, {large / 2**20:.1f} MB @ {MEMORY_USERS[1]} "
        f"(x{ratio:.2f} for 4x users)"
    )
    assert ratio < 1.5, (
        f"peak memory grew {ratio:.2f}x for 4x users — stream is not "
        "O(cohort)"
    )


#: Suffixes of the ``{prefix}_*`` keys one scale run records.
SCALE_RUN_KEYS = (
    "users",
    "wall_s",
    "users_per_sec",
    "peak_rss_mb",
    "submissions",
    "dropped",
    "filtered_kept",
    "ranking_quality_filtered",
)


def _record_scale_run(prefix: str, users: int) -> None:
    start = time.perf_counter()
    result = run_streaming_crowd_study(_config(users), cohort_size=COHORT_SIZE)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = (
        users,
        round(wall, 1),
        round(users / wall, 1),
        round(rss_mb, 1),
        result.submission_count,
        sum(result.dropped.values()),
        result.filtered_count,
        result.ranking_quality_filtered,
    )
    _merge_results(
        {f"{prefix}_{key}": value for key, value in zip(SCALE_RUN_KEYS, values)},
        path=RESULTS_PATH,
    )
    print(
        f"\n{users:,}-user campaign: {wall:.1f} s wall, "
        f"{users / wall:,.0f} users/s, peak RSS {rss_mb:.0f} MB, "
        f"{result.submission_count:,} submissions "
        f"({sum(result.dropped.values()):,} dropped)"
    )
    assert result.complete


def test_crowd_headline_scale():
    # Recorded, never rate-asserted: the 10^5-user headline.
    _record_scale_run("crowd_headline", HEADLINE_USERS)


def test_crowd_million_users():
    # The paper's "1M users ranked" endgame; tens of minutes on one
    # core, so opt-in and purely recorded.
    if not os.environ.get("REPRO_BENCH_CROWD_FULL"):
        # A skip retracts the last run's figures: they came from another
        # commit, and the file must not claim both a skip and a result.
        _merge_results(
            {f"crowd_full_{key}": RETRACT for key in SCALE_RUN_KEYS}
            | {"crowd_full_skipped_reason": "set REPRO_BENCH_CROWD_FULL=1 to run"},
            path=RESULTS_PATH,
        )
        pytest.skip("10^6-user campaign disabled by default")
    _merge_results({"crowd_full_skipped_reason": RETRACT}, path=RESULTS_PATH)
    _record_scale_run("crowd_full", FULL_USERS)
