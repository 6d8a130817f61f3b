"""Serial reference implementations the differential pairings check
production paths against.

:func:`run_crowd_study` is the §VI crowd campaign one user at a time
through the per-unit engine: every user's cooldown probe and field
ACCUBENCH pass run on a :class:`~repro.sim.engine.World` of their own.
The program's crowd campaign is the streamed cohort engine
(:func:`repro.core.crowd_stream.run_streaming_crowd_study`), which
replays this loop draw-for-draw per unit; ``crowd_stream_pairing_report``
in :mod:`repro.check.differential` gates that agreement.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.ambient_estimation import cooldown_probe
from repro.core.crowd import (
    CrowdConfig,
    Submission,
    crowd_fleet,
    crowd_param_stream,
    plan_users,
    prepare_field_device,
    probe_drop_reason,
)
from repro.core.experiments import unconstrained
from repro.core.protocol import Accubench
from repro.errors import AnalysisError
from repro.obs.metrics import default_registry
from repro.thermal.ambient import ConstantAmbient


class CrowdStudyResult(Sequence):
    """Submissions plus the yield accounting a list silently discarded.

    Behaves as a sequence of :class:`~repro.core.crowd.Submission`
    (indexing, iteration, ``len``), and additionally exposes which users
    uploaded nothing and why.
    """

    def __init__(
        self,
        submissions: Sequence[Submission],
        dropped: Optional[Dict[str, int]] = None,
        users: Optional[int] = None,
    ) -> None:
        self.submissions: Tuple[Submission, ...] = tuple(submissions)
        #: Users whose probe produced nothing, keyed by drop reason.
        self.dropped: Dict[str, int] = dict(dropped or {})
        #: Participants simulated (submissions + drops).
        self.users = (
            users
            if users is not None
            else len(self.submissions) + sum(self.dropped.values())
        )

    @property
    def dropped_total(self) -> int:
        """Users who uploaded nothing."""
        return sum(self.dropped.values())

    def __len__(self) -> int:
        return len(self.submissions)

    def __getitem__(self, index):
        return self.submissions[index]

    def __iter__(self) -> Iterator[Submission]:
        return iter(self.submissions)

    def __repr__(self) -> str:
        return (
            f"CrowdStudyResult({len(self.submissions)} submissions, "
            f"{self.dropped_total} dropped of {self.users} users)"
        )


def run_crowd_study(config: Optional[CrowdConfig] = None) -> CrowdStudyResult:
    """Simulate the full §VI crowd campaign, one user at a time.

    The serial reference: exact but O(users) in both time and memory,
    built from the same cohort-planner helpers as
    :func:`repro.core.crowd_stream.run_streaming_crowd_study`, the
    campaign the program runs.
    """
    config = config if config is not None else CrowdConfig()
    rng = crowd_param_stream(config)
    fleet = crowd_fleet(config)
    users = plan_users(config, rng, 0, config.user_count)
    bench = Accubench(config.protocol)
    registry = default_registry()
    submissions = []
    dropped: Dict[str, int] = {}
    for device, user in zip(fleet, users):
        prepare_field_device(device, user)
        room = ConstantAmbient(user.ambient_c)
        try:
            estimate = cooldown_probe(
                device,
                room,
                heat_s=config.probe_heat_s,
                observe_s=config.probe_observe_s,
                dt=config.protocol.dt,
            )
        except AnalysisError as error:
            # An unusable decay (e.g. someone's balcony in the wind);
            # the app uploads nothing — but the study should know how
            # much of its population it lost, and to what.
            reason = probe_drop_reason(error)
            dropped[reason] = dropped.get(reason, 0) + 1
            registry.counter(f"crowd.dropped.{reason}").inc()
            continue
        result = bench.run_iteration(device, unconstrained(), room=room)
        submissions.append(
            Submission(
                serial=device.serial,
                score=result.iterations_completed,
                energy_j=result.energy_j,
                ambient_estimate=estimate,
                true_ambient_c=user.ambient_c,
                true_leak_factor=device.profile.leak_factor,
            )
        )
    registry.counter("crowd.users").add(config.user_count)
    registry.counter("crowd.submissions").add(len(submissions))
    return CrowdStudyResult(
        submissions, dropped=dropped, users=config.user_count
    )
