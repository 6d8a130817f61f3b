"""Future work (paper §VI): do "strict filters" rescue crowdsourced data?

Simulates the proposed in-the-wild study: a crowd of users with different
silicon, rooms and battery levels run the benchmark app; each submission
carries the cooldown-probe ambient estimate.  Raw cross-user comparisons
confound silicon with room temperature; filtering to an
estimated-ambient band recovers the silicon ranking.
"""

from dataclasses import replace

from repro.check.oracles import run_crowd_study
from repro.core.crowd import (
    CrowdConfig,
    silicon_ranking_quality,
    spearman_rank_correlation,
    strict_filters,
)

USERS = 36


def test_ablation_crowd_strict_filters(benchmark):
    def run():
        # The serial oracle on the Euler solver this ablation was
        # calibrated with (the crowd's default protocol is expm).
        default = CrowdConfig()
        config = CrowdConfig(
            user_count=USERS,
            root_seed=5,
            protocol=replace(default.protocol, thermal_solver="euler"),
        )
        submissions = run_crowd_study(config)
        filtered = strict_filters(submissions, ambient_band_c=(22.0, 30.0))
        return submissions, filtered

    submissions, filtered = benchmark.pedantic(run, rounds=1, iterations=1)
    raw_quality = silicon_ranking_quality(submissions)
    filtered_quality = silicon_ranking_quality(filtered)

    # Ambient leaks into raw scores: correlate score with the user's room.
    ambient_confound = spearman_rank_correlation(
        [s.true_ambient_c for s in submissions],
        [s.score for s in submissions],
    )

    print(
        f"\n§VI crowd study: {len(submissions)} submissions, "
        f"{len(filtered)} survive strict filters"
        f"\n  ambient→score confound (raw):     ρ = {ambient_confound:+.2f}"
        f"\n  silicon ranking quality (raw):    ρ = {raw_quality:+.2f}"
        f"\n  silicon ranking quality (filtered): ρ = {filtered_quality:+.2f}"
    )

    # Enough users survive to compare.
    assert len(filtered) >= 6
    # Room temperature measurably pollutes raw scores...
    assert ambient_confound < -0.1
    # ...and filtering yields a clearly better silicon ranking.
    assert filtered_quality > raw_quality
    assert filtered_quality > 0.65
