"""Bit-level pin on the streamed §VI crowd campaign.

``tests/sim/test_batch_bits.py`` pins the cohort step on hand-built
cohorts; this test pins what the crowd adds around it: the probe's heat
and observe windows, the per-unit ``estimate_ambient`` fits, battery
draws awake and asleep, cooldown splits, drop accounting and the
estimator folds.  It hashes the campaign summary
(``CrowdStreamResult.to_dict``) and every accepted submission's fields as
exact float hex, for a small population on the default field protocol
(exact solver) whose last cohort is partial.  The worker count must not
change a bit, so one constant serves ``jobs=1`` (in-process) and
``jobs=2`` (the shared-memory pool).  The SHA-256 constant was recorded
before the cohort step's fixed costs were cut; any change to the crowd's
arithmetic changes it.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.crowd import CrowdConfig
from repro.core.crowd_stream import run_streaming_crowd_study

USERS = 40
COHORT_SIZE = 16
SEED = 1

#: SHA-256 of the campaign summary plus every submission.
DIGEST = "99511453d768ea22ea4464c12c835645432c6a8b37bde8b5b7b2592cb84ecd65"


def crowd_config():
    default = CrowdConfig()
    return CrowdConfig(
        user_count=USERS,
        root_seed=SEED,
        protocol=replace(default.protocol, thermal_solver="expm"),
    )


def submission_line(submission):
    estimate = submission.ambient_estimate
    fields = (
        submission.score,
        submission.energy_j,
        estimate.ambient_c,
        estimate.time_constant_s,
        estimate.r_squared,
        submission.true_ambient_c,
        submission.true_leak_factor,
    )
    return " ".join(
        [submission.serial, str(estimate.sample_count)]
        + [float(value).hex() for value in fields]
    )


def campaign_digest(jobs):
    submissions = []
    result = run_streaming_crowd_study(
        crowd_config(),
        cohort_size=COHORT_SIZE,
        jobs=jobs,
        on_submission=submissions.append,
    )
    digest = hashlib.sha256()
    digest.update(json.dumps(result.to_dict(), sort_keys=True).encode())
    for submission in submissions:
        digest.update(b"\n")
        digest.update(submission_line(submission).encode())
    return digest.hexdigest(), result, submissions


@pytest.mark.parametrize("jobs", [1, 2])
def test_crowd_bits_are_pinned(jobs):
    digest, _, _ = campaign_digest(jobs)
    assert digest == DIGEST


def test_campaign_covers_a_partial_cohort_and_every_user():
    # What the pinned campaign exercises, so the digest means something.
    _, result, submissions = campaign_digest(1)
    assert result.cohorts_total == 3
    assert USERS % COHORT_SIZE != 0
    assert result.users_simulated == USERS
    assert len(submissions) + sum(result.dropped.values()) == USERS
    assert len(submissions) > 0
