"""Streaming crowd campaigns: cohort-batched simulation at planet scale.

This is the only crowd campaign the program runs: the §VI study of
:mod:`repro.core.crowd`, simulated as a stream whose memory stays
O(cohort) however many users take part:

1. **Cohort planner** — users are materialized in fixed-size cohorts;
   a mixed-model population (``CrowdConfig.models``) assigns each user's
   model from its population index alone.  The population parameter
   stream draws exactly two uniforms per user in population order (see
   :func:`repro.core.crowd.plan_users`), so the planner's RNG cursor is
   a checkpointable object for any model mix.
2. **Batched cohort execution** — each cohort's cooldown probe and field
   ACCUBENCH pass advance in lock-step through one
   :class:`~repro.sim.batch.BatchedWorld` (per-unit rooms, per-unit
   batteries, per-model cohort blocks when models are mixed), replaying
   the serial engine draw-for-draw per unit.  Cohorts ship to worker
   processes as :class:`~repro.core.parallel.CrowdCohortTask`\\ s.
3. **Streaming estimators** — per-user submissions fold, in population
   order, into the online estimators of :mod:`repro.core.streaming`;
   memory stays O(cohort + estimator state) however many users run.
4. **Checkpoint/resume** — after every ``checkpoint_every`` cohorts the
   estimator state, drop counters and parameter-stream cursor are written
   atomically; an interrupted campaign resumed from its checkpoint
   produces bit-identical estimates to an uninterrupted one.
5. **Live telemetry** — an optional :class:`~repro.obs.progress.ProgressBus`
   receives per-cohort completions and a campaign cursor at every fold
   boundary (never inside the lock-step loop), an optional
   :class:`~repro.obs.watch.Watchdog` evaluates each snapshot, and a
   ``repro-manifest-v1`` provenance document is written next to every
   checkpoint and final result.

Submissions themselves are not retained — pass ``on_submission`` to
observe them (the differential harness uses this to compare the stream
against the serial per-user oracle,
:func:`repro.check.oracles.run_crowd_study`, at small N).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from math import ceil
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ambient_estimation import (
    DEFAULT_PROBE_POLL_S,
    DEFAULT_PROBE_SKIP_FRACTION,
    estimate_ambient,
)
from repro.core.batch_runner import run_batch_iteration
from repro.core.crowd import (
    CrowdConfig,
    Submission,
    UserSample,
    crowd_fleet,
    crowd_model_label,
    crowd_param_stream,
    passes_strict_filters,
    plan_users,
    prepare_field_device,
    probe_drop_reason,
)
from repro.core.experiments import unconstrained
from repro.core.parallel import CrowdCohortTask, dispatch
from repro.core.streaming import (
    BinRecoveryCounter,
    QuantileBank,
    RankingReservoir,
    StreamingMoments,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.obs.manifest import (
    build_manifest,
    manifest_path_for,
    write_atomic,
    write_manifest,
)
from repro.obs.metrics import default_registry
from repro.obs.progress import ProgressBus, ProgressCallback, TaskProgress
from repro.obs.watch import Watchdog
from repro.rng import derive_stream
from repro.sim.batch import BatchedWorld
from repro.soc.perf import iterations_from_ops

#: Checkpoint file format marker.
CHECKPOINT_FORMAT = "repro-crowd-checkpoint-v1"

#: Default fixed cohort width (units advanced per lock-step batch).
DEFAULT_COHORT_SIZE = 256

#: Default bounded-reservoir width for streaming ranking quality.
DEFAULT_RESERVOIR_CAPACITY = 1024


# ---------------------------------------------------------------------------
# Cohort execution (runs inside the worker process)


@dataclass(frozen=True)
class CohortOutcome:
    """One user's result within a cohort: a submission or a drop."""

    user_index: int
    serial: str
    bin_index: int
    submission: Optional[Submission] = None
    drop_reason: Optional[str] = None


@dataclass(frozen=True)
class CohortResult:
    """Everything one executed cohort reports back, in population order."""

    index: int
    model: str
    outcomes: Tuple[CohortOutcome, ...]

    @property
    def serial(self) -> str:  # TaskProgress display surface
        return f"cohort-{self.index:04d}"

    @property
    def workload(self) -> str:  # TaskProgress display surface
        return "CROWD"

    @property
    def submissions(self) -> List[Submission]:
        return [o.submission for o in self.outcomes if o.submission is not None]


def execute_cohort(
    config: CrowdConfig, cohort_index: int, users: Sequence[UserSample]
) -> CohortResult:
    """Run one cohort's probe + field ACCUBENCH pass through a BatchedWorld.

    Mirrors the serial per-user oracle
    :func:`repro.check.oracles.run_crowd_study` — reboot-and-soak, battery,
    heat/observe probe, then one protocol iteration — with every per-unit
    random draw taken from the same streams in the same order.  Users
    whose probe fit fails become drops (their unit still rides along in
    the lock-step world; its results are simply discarded, and its
    streams are independent of every other unit's).
    """
    users = tuple(users)
    if not users:
        raise ConfigurationError("a cohort needs at least one user")
    for prev, cur in zip(users, users[1:]):
        if cur.index != prev.index + 1:
            raise ConfigurationError("cohort users must be contiguous")
    registry = default_registry()
    bench = config.protocol
    devices = crowd_fleet(config, start=users[0].index, count=len(users))
    for device, user in zip(devices, users):
        prepare_field_device(device, user)
    rooms = np.array([user.ambient_c for user in users])

    with registry.span(
        "crowd.cohort",
        model=crowd_model_label(config),
        index=cohort_index,
        units=len(users),
    ):
        world = BatchedWorld(
            devices,
            room_temp_c=rooms,
            dt=bench.dt,
            trace_decimation=bench.trace_decimation,
            check_invariants=bench.check_invariants,
        )

        # Cooldown probe, batched: heat awake (per-step, RNG replayed),
        # then observe asleep — each 5 s poll window is one exact macro
        # propagation followed by one sensor draw per unit, exactly the
        # draws the serial cooldown_probe performs.
        world.acquire_wakelock()
        world.start_load()
        world.run_for(config.probe_heat_s)
        world.stop_load()
        world.release_wakelock()
        times: List[float] = []
        readings: List[np.ndarray] = []
        elapsed = 0.0
        while elapsed < config.probe_observe_s:
            world.run_asleep(DEFAULT_PROBE_POLL_S)
            elapsed += DEFAULT_PROBE_POLL_S
            times.append(elapsed)
            readings.append(world.read_sensors())
        temps = np.stack(readings, axis=0)

        estimates: List[Any] = []
        for column in range(len(users)):
            try:
                estimates.append(
                    estimate_ambient(
                        times,
                        temps[:, column],
                        skip_fraction=DEFAULT_PROBE_SKIP_FRACTION,
                    )
                )
            except AnalysisError as error:
                estimates.append(probe_drop_reason(error))

        cooldown_s, energy_j, completed = run_batch_iteration(
            world, bench, (unconstrained(),) * len(users)
        )
        world.finalize()

    outcomes = []
    for i, (user, device) in enumerate(zip(users, devices)):
        bin_index = device.soc.clusters[0].bin_index
        if isinstance(estimates[i], str):
            outcomes.append(
                CohortOutcome(
                    user_index=user.index,
                    serial=user.serial,
                    bin_index=bin_index,
                    drop_reason=estimates[i],
                )
            )
            continue
        outcomes.append(
            CohortOutcome(
                user_index=user.index,
                serial=user.serial,
                bin_index=bin_index,
                submission=Submission(
                    serial=user.serial,
                    score=iterations_from_ops(float(completed[i])),
                    energy_j=float(energy_j[i]),
                    ambient_estimate=estimates[i],
                    true_ambient_c=user.ambient_c,
                    true_leak_factor=device.profile.leak_factor,
                ),
            )
        )
    return CohortResult(
        index=cohort_index,
        model=crowd_model_label(config),
        outcomes=tuple(outcomes),
    )


# ---------------------------------------------------------------------------
# Streaming estimator bundle


class CrowdEstimators:
    """All online state a streaming crowd campaign accumulates.

    Folding is strictly in population order (the scheduler guarantees
    cohorts fold in index order regardless of worker completion order),
    so the state after user k is a pure function of users 0..k — the
    property checkpoint/resume leans on.
    """

    def __init__(
        self,
        root_seed: int,
        ambient_band_c: Tuple[float, float] = (22.0, 30.0),
        min_r_squared: float = 0.9,
        reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    ) -> None:
        self.ambient_band_c = (float(ambient_band_c[0]), float(ambient_band_c[1]))
        self.min_r_squared = float(min_r_squared)
        self.users_done = 0
        self.submission_count = 0
        self.filtered_count = 0
        self.dropped: Dict[str, int] = {}
        self.score_moments = StreamingMoments()
        self.energy_moments = StreamingMoments()
        self.ambient_error_moments = StreamingMoments()
        self.score_quantiles = QuantileBank()
        self.ranking_raw = RankingReservoir(
            reservoir_capacity,
            derive_stream(root_seed, "crowd-stream", "reservoir-raw"),
        )
        self.ranking_filtered = RankingReservoir(
            reservoir_capacity,
            derive_stream(root_seed, "crowd-stream", "reservoir-filtered"),
        )
        self.bins = BinRecoveryCounter()

    def fold(self, outcome: CohortOutcome) -> None:
        """Fold one user's outcome in (population order)."""
        self.users_done += 1
        if outcome.submission is None:
            reason = outcome.drop_reason or "probe_failed"
            self.dropped[reason] = self.dropped.get(reason, 0) + 1
            return
        submission = outcome.submission
        self.submission_count += 1
        self.score_moments.add(submission.score)
        self.energy_moments.add(submission.energy_j)
        self.ambient_error_moments.add(
            submission.ambient_estimate.ambient_c - submission.true_ambient_c
        )
        self.score_quantiles.add(submission.score)
        self.ranking_raw.add(-submission.true_leak_factor, submission.score)
        self.bins.add(outcome.bin_index, submission.score)
        if passes_strict_filters(
            submission, self.ambient_band_c, self.min_r_squared
        ):
            self.filtered_count += 1
            self.ranking_filtered.add(
                -submission.true_leak_factor, submission.score
            )

    def state_dict(self) -> Dict[str, Any]:
        return {
            "ambient_band_c": list(self.ambient_band_c),
            "min_r_squared": self.min_r_squared,
            "users_done": self.users_done,
            "submission_count": self.submission_count,
            "filtered_count": self.filtered_count,
            "dropped": dict(self.dropped),
            "score_moments": self.score_moments.state_dict(),
            "energy_moments": self.energy_moments.state_dict(),
            "ambient_error_moments": self.ambient_error_moments.state_dict(),
            "score_quantiles": self.score_quantiles.state_dict(),
            "ranking_raw": self.ranking_raw.state_dict(),
            "ranking_filtered": self.ranking_filtered.state_dict(),
            "bins": self.bins.state_dict(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "CrowdEstimators":
        inst = cls.__new__(cls)
        band = state["ambient_band_c"]
        inst.ambient_band_c = (float(band[0]), float(band[1]))
        inst.min_r_squared = float(state["min_r_squared"])
        inst.users_done = int(state["users_done"])
        inst.submission_count = int(state["submission_count"])
        inst.filtered_count = int(state["filtered_count"])
        inst.dropped = {k: int(v) for k, v in state["dropped"].items()}
        inst.score_moments = StreamingMoments.from_state(state["score_moments"])
        inst.energy_moments = StreamingMoments.from_state(
            state["energy_moments"]
        )
        inst.ambient_error_moments = StreamingMoments.from_state(
            state["ambient_error_moments"]
        )
        inst.score_quantiles = QuantileBank.from_state(state["score_quantiles"])
        inst.ranking_raw = RankingReservoir.from_state(state["ranking_raw"])
        inst.ranking_filtered = RankingReservoir.from_state(
            state["ranking_filtered"]
        )
        inst.bins = BinRecoveryCounter.from_state(state["bins"])
        return inst


# ---------------------------------------------------------------------------
# Campaign result


@dataclass(frozen=True)
class CrowdStreamResult:
    """Summary of a streamed crowd campaign.

    Every field except ``wall_s`` is a deterministic function of the
    configuration — resumed and uninterrupted campaigns agree exactly.
    """

    model: str
    user_count: int
    cohort_size: int
    cohorts_completed: int
    cohorts_total: int
    users_simulated: int
    submission_count: int
    filtered_count: int
    dropped: Dict[str, int]
    score_mean: float
    score_std: float
    score_quantiles: Dict[str, float]
    energy_mean_j: float
    ambient_error_mean_c: float
    ambient_error_std_c: float
    ranking_quality_raw: Optional[float]
    ranking_quality_filtered: Optional[float]
    bin_counts: Dict[int, int]
    bin_ordering_quality: Optional[float]
    resumed_from_cohort: int
    fingerprint: str
    wall_s: float = field(compare=False)

    @property
    def complete(self) -> bool:
        """Whether every planned cohort has folded."""
        return self.cohorts_completed >= self.cohorts_total

    @property
    def users_per_sec(self) -> float:
        """Users simulated *by this invocation* per wall second."""
        fresh = self.users_simulated - self.resumed_from_cohort * self.cohort_size
        return fresh / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic summary (wall-clock excluded), JSON-ready."""
        return {
            "format": "repro-crowd-stream-v1",
            "fingerprint": self.fingerprint,
            "model": self.model,
            "user_count": self.user_count,
            "cohort_size": self.cohort_size,
            "cohorts_completed": self.cohorts_completed,
            "cohorts_total": self.cohorts_total,
            "users_simulated": self.users_simulated,
            "submission_count": self.submission_count,
            "filtered_count": self.filtered_count,
            "dropped": dict(self.dropped),
            "score_mean": self.score_mean,
            "score_std": self.score_std,
            "score_quantiles": dict(self.score_quantiles),
            "energy_mean_j": self.energy_mean_j,
            "ambient_error_mean_c": self.ambient_error_mean_c,
            "ambient_error_std_c": self.ambient_error_std_c,
            "ranking_quality_raw": self.ranking_quality_raw,
            "ranking_quality_filtered": self.ranking_quality_filtered,
            "bin_counts": {str(k): v for k, v in self.bin_counts.items()},
            "bin_ordering_quality": self.bin_ordering_quality,
            "resumed_from_cohort": self.resumed_from_cohort,
        }


# ---------------------------------------------------------------------------
# Checkpointing


def _config_fingerprint(
    config: CrowdConfig,
    cohort_size: int,
    ambient_band_c: Tuple[float, float],
    min_r_squared: float,
    reservoir_capacity: int,
) -> str:
    """Stable hash of everything that shapes the stream's trajectory."""
    payload = {
        "config": asdict(config),
        "cohort_size": cohort_size,
        "ambient_band_c": list(ambient_band_c),
        "min_r_squared": min_r_squared,
        "reservoir_capacity": reservoir_capacity,
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def write_checkpoint(
    path: str,
    fingerprint: str,
    cohorts_done: int,
    estimators: CrowdEstimators,
    param_rng_state: Dict[str, Any],
    telemetry: Optional[Dict[str, Any]] = None,
) -> None:
    """Atomically persist the campaign cursor (write, fsync, rename).

    ``telemetry`` is a small non-load-bearing block (users done, rate,
    wall time at write) that :func:`resume_banner` renders when the
    campaign comes back up; resume correctness never reads it.
    """
    document = {
        "format": CHECKPOINT_FORMAT,
        "fingerprint": fingerprint,
        "cohorts_done": cohorts_done,
        "param_rng_state": param_rng_state,
        "estimators": estimators.state_dict(),
    }
    if telemetry is not None:
        document["telemetry"] = dict(telemetry)
    # ``json.dumps`` runs the C encoder; ``json.dump`` always takes the
    # pure-Python ``iterencode`` path.  The bytes are the same.
    write_atomic(path, lambda fp: fp.write(json.dumps(document)))


def load_checkpoint(path: str, fingerprint: str) -> Dict[str, Any]:
    """Load and validate a checkpoint written by :func:`write_checkpoint`."""
    with open(path) as fp:
        try:
            document = json.load(fp)
        except ValueError as error:  # truncated, corrupt or not text
            raise ConfigurationError(
                f"checkpoint {path} is not valid JSON ({error}); "
                "refusing to resume"
            ) from error
    if not isinstance(document, dict) or (
        document.get("format") != CHECKPOINT_FORMAT
    ):
        raise ConfigurationError(
            f"{path} is not a {CHECKPOINT_FORMAT} checkpoint"
        )
    if document.get("fingerprint") != fingerprint:
        raise ConfigurationError(
            f"checkpoint {path} was written by a different campaign "
            "configuration; refusing to resume"
        )
    return document


def resume_banner(document: Dict[str, Any]) -> str:
    """The one-line ``resuming at N users, M cohorts, X users/s`` banner.

    A pure function of the checkpoint document, so the banner a resumed
    campaign prints is exactly the state the interrupted one persisted
    (tested by killing a run mid-flight and comparing).  Checkpoints
    written before the telemetry block simply omit the rate.
    """
    cohorts = int(document.get("cohorts_done", 0))
    telemetry = document.get("telemetry") or {}
    users = telemetry.get("users_done")
    if users is None:
        users = document.get("estimators", {}).get("users_done", 0)
    banner = f"resuming at {int(users)} users, {cohorts} cohorts"
    rate = telemetry.get("users_per_sec")
    if rate is not None:
        banner += f", {float(rate):.2f} users/s"
    return banner


# ---------------------------------------------------------------------------
# The campaign driver


def run_streaming_crowd_study(
    config: Optional[CrowdConfig] = None,
    cohort_size: int = DEFAULT_COHORT_SIZE,
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 1,
    ambient_band_c: Tuple[float, float] = (22.0, 30.0),
    min_r_squared: float = 0.9,
    reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    stop_after_cohorts: Optional[int] = None,
    on_submission: Optional[Callable[[Submission], None]] = None,
    progress: Optional[ProgressCallback] = None,
    telemetry: Optional[ProgressBus] = None,
    watchdog: Optional[Watchdog] = None,
    manifest_path: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CrowdStreamResult:
    """Run (or resume) the §VI crowd campaign as a cohort stream.

    Parameters
    ----------
    config:
        The campaign (default :class:`CrowdConfig`); its protocol must
        use the exact ``expm`` solver with sleep fast-forward (the batched
        engine's requirements, both on by default).
    cohort_size:
        Users advanced per lock-step batch.
    jobs:
        Worker processes: one runs cohorts in-process, more run them on
        the shared-memory pool (:func:`repro.core.backends.backend_for`),
        which prefetches a bounded window ahead.  Completions always
        *fold* in population order, so results — and checkpoints — are
        identical for any worker count.
    checkpoint_path:
        When given: resume from it if it exists, write it every
        ``checkpoint_every`` folded cohorts.
    stop_after_cohorts:
        Fold at most this many (new) cohorts, then return a partial
        result — the programmatic form of an interruption, used by the
        resume tests and by incremental campaigns.
    on_submission:
        Observer for every accepted submission, in population order
        (submissions are otherwise not retained).
    progress:
        Per-cohort :class:`~repro.obs.progress.TaskProgress` callback.
    telemetry:
        A :class:`~repro.obs.progress.ProgressBus` fed at every fold
        boundary: the per-cohort event plus a campaign cursor
        (``users_done``, ``users_per_sec``, ``dropped_total``,
        ``checkpoint_cohort``...).  This is what ``--serve`` exposes at
        ``/status``; it never touches the simulation.
    watchdog:
        Rules evaluated against each bus snapshot; warnings land on the
        bus, in ``watchdog.warnings`` (counter) and through ``log``.  A
        local bus is created when ``telemetry`` is not supplied.
    manifest_path:
        Where to write the final ``repro-manifest-v1`` document.  When a
        ``checkpoint_path`` is given, a sibling manifest
        (``<checkpoint>.manifest.json``) is also refreshed at every
        checkpoint whether or not this is set.
    log:
        Sink for the resume banner and watchdog warnings (one string per
        call); defaults to silent.
    """
    config = config if config is not None else CrowdConfig()
    if config.protocol.thermal_solver != "expm":
        raise ConfigurationError(
            "crowd campaigns require protocol.thermal_solver='expm' "
            "(the batched engine's exact propagator)"
        )
    if not config.protocol.sleep_fast_forward:
        raise ConfigurationError(
            "crowd campaigns require sleep_fast_forward=True"
        )
    if cohort_size < 1:
        raise ConfigurationError("cohort_size must be at least 1")
    if checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be at least 1")

    fingerprint = _config_fingerprint(
        config, cohort_size, ambient_band_c, min_r_squared, reservoir_capacity
    )
    cohorts_total = ceil(config.user_count / cohort_size)
    rng = crowd_param_stream(config)
    bus = telemetry
    if bus is None and watchdog is not None:
        bus = ProgressBus()
    start_cohort = 0
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        document = load_checkpoint(checkpoint_path, fingerprint)
        estimators = CrowdEstimators.from_state(document["estimators"])
        rng.bit_generator.state = document["param_rng_state"]
        start_cohort = int(document["cohorts_done"])
        banner = resume_banner(document)
        if log is not None:
            log(banner)
        if bus is not None:
            bus.publish(resumed_from_cohort=start_cohort, resume_banner=banner)
    else:
        estimators = CrowdEstimators(
            config.root_seed,
            ambient_band_c=ambient_band_c,
            min_r_squared=min_r_squared,
            reservoir_capacity=reservoir_capacity,
        )

    end_cohort = cohorts_total
    if stop_after_cohorts is not None:
        if stop_after_cohorts < 1:
            raise ConfigurationError("stop_after_cohorts must be at least 1")
        end_cohort = min(cohorts_total, start_cohort + stop_after_cohorts)

    registry = default_registry()
    started_wall = time.perf_counter()
    last_checkpoint: Optional[int] = start_cohort if start_cohort else None
    # Parameter-stream snapshots taken right after each cohort's draws;
    # the checkpoint needs the cursor of the last *folded* cohort even
    # while the planner has prefetched further ahead.
    rng_after: Dict[int, Dict[str, Any]] = {}

    def telemetry_block(wall: float, cohorts_done: int) -> Dict[str, Any]:
        fresh_users = estimators.users_done - start_cohort * cohort_size
        return {
            "users_done": estimators.users_done,
            "cohorts_done": cohorts_done,
            "dropped_total": sum(estimators.dropped.values()),
            "users_per_sec": round(fresh_users / wall, 2) if wall > 0 else 0.0,
            "wall_s": round(wall, 3),
        }

    def write_run_manifest(
        path: str,
        kind: str,
        result: Optional[Dict[str, Any]] = None,
        **extra: Any,
    ) -> None:
        write_manifest(
            build_manifest(
                kind,
                fingerprint,
                config.root_seed,
                registry=registry,
                status=bus.status() if bus is not None else None,
                result=result,
                extra={"checkpoint_path": checkpoint_path, **extra},
            ),
            path,
        )

    def make_task(index: int) -> CrowdCohortTask:
        start = index * cohort_size
        width = min(cohort_size, config.user_count - start)
        users = plan_users(config, rng, start, width)
        rng_after[index] = rng.bit_generator.state
        return CrowdCohortTask(
            cohort_index=index, config=config, users=tuple(users)
        )

    def fold(index: int, payload) -> None:
        nonlocal last_checkpoint
        result: CohortResult = payload.results[0]
        for outcome in result.outcomes:
            estimators.fold(outcome)
            if outcome.submission is None:
                registry.counter(
                    f"crowd.dropped.{outcome.drop_reason}"
                ).inc()
            elif on_submission is not None:
                on_submission(outcome.submission)
        registry.counter("crowd.users").add(len(result.outcomes))
        registry.counter("crowd.submissions").add(len(result.submissions))
        registry.counter("crowd.cohorts_completed").inc()
        wall = time.perf_counter() - started_wall
        if wall > 0:
            fresh_users = estimators.users_done - start_cohort * cohort_size
            registry.gauge("crowd.users_per_sec").set(fresh_users / wall)
        state = rng_after.pop(index)
        cursor = telemetry_block(wall, index + 1)
        if checkpoint_path is not None and (
            (index + 1 - start_cohort) % checkpoint_every == 0
            or index + 1 == end_cohort
        ):
            write_checkpoint(
                checkpoint_path,
                fingerprint,
                index + 1,
                estimators,
                state,
                telemetry=cursor,
            )
            last_checkpoint = index + 1
            write_run_manifest(
                str(manifest_path_for(checkpoint_path)),
                "crowd-stream-checkpoint",
                cohorts_done=index + 1,
            )
        event = TaskProgress(
            index=index,
            completed=index + 1 - start_cohort,
            total=end_cohort - start_cohort,
            model=result.model,
            serial=result.serial,
            workload=result.workload,
            wall_s=payload.wall_s,
            steps_per_sec=(
                round(len(result.outcomes) / payload.wall_s, 1)
                if payload.wall_s > 0
                else None
            ),
        )
        if progress is not None:
            progress(event)
        if bus is not None:
            bus(event)
            bus.publish(
                users_total=config.user_count,
                cohorts_total=cohorts_total,
                checkpoint_cohort=last_checkpoint,
                **cursor,
            )
            if watchdog is not None:
                for warning in watchdog.observe(bus.status()):
                    bus.warn(warning)
                    registry.counter("watchdog.warnings").inc()
                    if log is not None:
                        log(
                            f"watchdog[{warning['rule']}]: "
                            f"{warning['message']}"
                        )

    # Completions land in completion order with a bounded in-flight
    # window; a small reorder buffer (never larger than the window)
    # restores strict population order before folding.  Payloads are
    # dropped the moment they fold, so parent memory tracks the window,
    # not the campaign.
    pending: Dict[int, Any] = {}
    next_fold = start_cohort

    def land(offset_index: int, payload) -> None:
        nonlocal next_fold
        pending[start_cohort + offset_index] = payload
        while next_fold in pending:
            fold(next_fold, pending.pop(next_fold))
            next_fold += 1

    with registry.span(
        "crowd.stream",
        model=crowd_model_label(config),
        users=config.user_count,
        cohort_size=cohort_size,
        jobs=jobs,
    ):
        dispatch(
            (make_task(i) for i in range(start_cohort, end_cohort)),
            jobs,
            land,
            count=end_cohort - start_cohort,
        )

    wall_s = time.perf_counter() - started_wall
    result = CrowdStreamResult(
        model=crowd_model_label(config),
        user_count=config.user_count,
        cohort_size=cohort_size,
        cohorts_completed=end_cohort,
        cohorts_total=cohorts_total,
        users_simulated=estimators.users_done,
        submission_count=estimators.submission_count,
        filtered_count=estimators.filtered_count,
        dropped=dict(estimators.dropped),
        score_mean=estimators.score_moments.mean,
        score_std=estimators.score_moments.std,
        score_quantiles=(
            estimators.score_quantiles.estimates()
            if estimators.submission_count > 0
            else {}
        ),
        energy_mean_j=estimators.energy_moments.mean,
        ambient_error_mean_c=estimators.ambient_error_moments.mean,
        ambient_error_std_c=estimators.ambient_error_moments.std,
        ranking_quality_raw=estimators.ranking_raw.correlation(),
        ranking_quality_filtered=estimators.ranking_filtered.correlation(),
        bin_counts=estimators.bins.counts,
        bin_ordering_quality=estimators.bins.ordering_quality(),
        resumed_from_cohort=start_cohort,
        fingerprint=fingerprint,
        wall_s=wall_s,
    )
    if manifest_path is not None:
        write_run_manifest(manifest_path, "crowd-stream", result.to_dict())
    elif checkpoint_path is not None:
        write_run_manifest(
            str(manifest_path_for(checkpoint_path)),
            "crowd-stream",
            cohorts_done=end_cohort,
        )
    return result
