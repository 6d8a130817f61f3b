"""Crowdsourced benchmarking study simulator (paper §VI).

The paper's endgame: ship a benchmarking app, gather runs from phones in
the wild, and rank devices / recover bins from the data.  "The only
parameters that we cannot control for in the wild are ambient temperature
and software stack.  However, preliminary results on using the cooldown
phase as an estimate of ambient temperature are encouraging.  This, in
addition to strict filters, should enable us to compare different devices
from across the world."

This module simulates exactly that pipeline:

1. sample a population of users, each with their own unit (silicon
   lottery), room temperature, and battery charge;
2. each user's app runs a cooldown probe (ambient estimate) followed by a
   field ACCUBENCH pass, battery-powered, in their uncontrolled room;
3. apply the paper's "strict filters" (ambient-estimate band, clean decay
   fits) and measure how well the filtered ranking recovers the true
   silicon ranking.

This module holds the campaign's configuration, the cohort planner
(:func:`draw_user_params`, :func:`plan_users`, :func:`crowd_fleet`,
:func:`prepare_field_device`), the submission record, the strict filters
and the rank statistics.  The campaign itself runs in
:mod:`repro.core.crowd_stream`, the cohort-batched streaming engine; the
serial one-user-at-a-time loop it is checked against is the oracle
:func:`repro.check.oracles.run_crowd_study`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ambient_estimation import AmbientEstimate
from repro.core.config import AccubenchConfig
from repro.device.battery import Battery
from repro.device.fleet import synthetic_fleet
from repro.device.phone import Device
from repro.errors import AnalysisError, ConfigurationError
from repro.rng import DEFAULT_ROOT_SEED, derive_stream

#: Lot name shared by the serial and streamed crowd paths; unit serials
#: (and therefore their silicon and noise streams) derive from it.
CROWD_LOT_NAME = "crowd"


@dataclass(frozen=True)
class CrowdConfig:
    """Population and field-protocol parameters.

    Attributes
    ----------
    model:
        Handset model the crowd owns.
    models:
        Optional heterogeneous population: when non-empty, participants
        cycle through these models in population order (user ``i`` owns
        ``models[i % len(models)]``) and ``model`` is ignored.  The
        assignment is a pure function of the population index — no RNG
        draws — so the parameter stream's two-uniforms-per-user
        checkpoint cursor is unchanged and any population slice can be
        materialized independently.
    user_count:
        Number of participants.
    ambient_range_c:
        Uniform range of room temperatures across the crowd.
    charge_range:
        Uniform range of battery state-of-charge at run time.
    protocol:
        The field app's (shortened) ACCUBENCH parameters, on the exact
        ``expm`` solver the batched crowd engine requires.
    probe_heat_s / probe_observe_s:
        The ambient-probe cycle lengths.
    root_seed:
        Seed for population sampling.
    """

    model: str = "Nexus 5"
    models: Tuple[str, ...] = ()
    user_count: int = 30
    ambient_range_c: Tuple[float, float] = (16.0, 36.0)
    charge_range: Tuple[float, float] = (0.5, 1.0)
    protocol: AccubenchConfig = field(
        default_factory=lambda: AccubenchConfig(
            warmup_s=120.0,
            workload_s=180.0,
            cooldown_target_c=40.0,
            cooldown_timeout_s=3600.0,
            iterations=1,
            dt=0.25,
            trace_decimation=20,
            thermal_solver="expm",
        )
    )
    probe_heat_s: float = 90.0
    probe_observe_s: float = 600.0
    root_seed: int = DEFAULT_ROOT_SEED

    def __post_init__(self) -> None:
        if self.user_count < 1:
            raise ConfigurationError("user_count must be at least 1")
        low, high = self.ambient_range_c
        if low >= high:
            raise ConfigurationError("ambient_range_c must be (low, high)")
        low, high = self.charge_range
        if not 0.0 < low <= high <= 1.0:
            raise ConfigurationError("charge_range must be within (0, 1]")


@dataclass(frozen=True)
class Submission:
    """One user's uploaded result.

    Attributes
    ----------
    serial:
        The unit's identity (in reality: an anonymized install id).
    score:
        Workload iterations completed.
    energy_j:
        Battery energy over the workload (self-reported via fuel gauge).
    ambient_estimate:
        The app's cooldown-probe estimate of the user's room.
    true_ambient_c / true_leak_factor:
        Ground truth the real study would NOT have — kept for evaluating
        the pipeline itself.
    """

    serial: str
    score: float
    energy_j: float
    ambient_estimate: AmbientEstimate
    true_ambient_c: float
    true_leak_factor: float


@dataclass(frozen=True)
class UserSample:
    """One planned participant: population index plus field conditions.

    The crowd parameter stream draws exactly two uniforms per user
    (ambient, then charge) in population order — the invariant both the
    serial loop and the streamed cohort planner rely on for draw-for-draw
    agreement and for checkpointable RNG cursors.
    """

    index: int
    serial: str
    ambient_c: float
    charge: float


def crowd_models(config: CrowdConfig) -> Tuple[str, ...]:
    """The population's model cycle: ``models`` if set, else ``(model,)``."""
    return tuple(config.models) if config.models else (config.model,)


def crowd_model_for(config: CrowdConfig, index: int) -> str:
    """Which model population index ``index`` owns (index-pure, no RNG)."""
    cycle = crowd_models(config)
    return cycle[index % len(cycle)]


def crowd_model_label(config: CrowdConfig) -> str:
    """Display label for the population: one model, or a ``+`` join."""
    return "+".join(crowd_models(config))


def crowd_param_stream(config: CrowdConfig) -> np.random.Generator:
    """The population parameter stream the crowd planner consumes.

    Keyed by the single-model field regardless of ``models`` — user
    parameters (ambient, charge) are model-independent, and keeping the
    key stable means a homogeneous campaign and a mixed campaign with the
    same seed draw identical user conditions.
    """
    return derive_stream(config.root_seed, CROWD_LOT_NAME, config.model)


def draw_user_params(
    config: CrowdConfig, rng: np.random.Generator
) -> Tuple[float, float]:
    """Draw one user's (ambient °C, state of charge), in the serial order."""
    ambient = float(rng.uniform(*config.ambient_range_c))
    charge = float(rng.uniform(*config.charge_range))
    return ambient, charge


def plan_users(
    config: CrowdConfig,
    rng: np.random.Generator,
    start: int,
    count: int,
) -> List[UserSample]:
    """Materialize ``count`` users from population index ``start`` on.

    Consumes ``2 * count`` uniforms from ``rng`` — the caller owns the
    cursor (and may checkpoint the generator state between calls).
    """
    users = []
    for index in range(start, start + count):
        ambient, charge = draw_user_params(config, rng)
        users.append(
            UserSample(
                index=index,
                serial=f"{CROWD_LOT_NAME}-{index:03d}",
                ambient_c=ambient,
                charge=charge,
            )
        )
    return users


def crowd_fleet(
    config: CrowdConfig, start: int = 0, count: Optional[int] = None
) -> List[Device]:
    """Build the crowd's devices for population indices [start, start+count).

    Unit silicon is keyed per (model, lot, serial), so any slice of the
    population can be materialized independently — a mixed-model
    population builds each unit from its own index's model and gets the
    exact same device whichever cohort materializes it.  The thermal
    solver follows the field protocol's.
    """
    width = count if count is not None else config.user_count
    cycle = crowd_models(config)
    if len(cycle) == 1:
        return synthetic_fleet(
            cycle[0],
            width,
            lot_name=CROWD_LOT_NAME,
            root_seed=config.root_seed,
            thermal_solver=config.protocol.thermal_solver,
            start_index=start,
        )
    return [
        synthetic_fleet(
            crowd_model_for(config, index),
            1,
            lot_name=CROWD_LOT_NAME,
            root_seed=config.root_seed,
            thermal_solver=config.protocol.thermal_solver,
            start_index=index,
        )[0]
        for index in range(start, start + width)
    ]


def prepare_field_device(device: Device, user: UserSample) -> None:
    """Put one unit into its user's field state: soaked to the room,
    running on a partially-charged battery."""
    device.reboot(soak_temp_c=user.ambient_c)
    device.connect_supply(
        Battery(device.spec.battery, state_of_charge=user.charge)
    )


def probe_drop_reason(error: AnalysisError) -> str:
    """Classify why a cooldown probe produced no usable estimate.

    The keys are stable telemetry labels (``crowd.dropped.<reason>``),
    derived from the :func:`estimate_ambient` failure modes.
    """
    text = str(error)
    if "samples after skipping" in text:
        return "too_few_samples"
    if "uniform sampling" in text or "strictly increasing" in text:
        return "nonuniform_sampling"
    if "barely moves" in text:
        return "already_at_ambient"
    if "do not describe a decay" in text:
        return "no_clean_decay"
    return "probe_failed"


def strict_filters(
    submissions: Sequence[Submission],
    ambient_band_c: Tuple[float, float] = (22.0, 30.0),
    min_r_squared: float = 0.9,
) -> List[Submission]:
    """The paper's "strict filters": keep comparable runs only.

    Filters on the *estimated* ambient (the real pipeline has no ground
    truth) and on the decay-fit quality.
    """
    _strict_band(ambient_band_c)
    return [
        s
        for s in submissions
        if passes_strict_filters(s, ambient_band_c, min_r_squared)
    ]


def passes_strict_filters(
    submission: Submission,
    ambient_band_c: Tuple[float, float] = (22.0, 30.0),
    min_r_squared: float = 0.9,
) -> bool:
    """One submission's :func:`strict_filters` verdict (streaming form)."""
    low, high = _strict_band(ambient_band_c)
    return (
        submission.ambient_estimate.is_confident(min_r_squared)
        and low <= submission.ambient_estimate.ambient_c <= high
    )


def _strict_band(ambient_band_c: Tuple[float, float]) -> Tuple[float, float]:
    low, high = ambient_band_c
    if low >= high:
        raise AnalysisError("ambient_band_c must be (low, high)")
    return low, high


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties sharing their group's mean rank.

    The vectorized (``scipy``-free) equivalent of ``rankdata(values,
    method="average")``: a stable argsort, group boundaries where the
    sorted values change, and each group's mean rank scattered back.
    Tie semantics are exact — equal floats share one rank.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=boundary[1:])
    group = np.cumsum(boundary) - 1
    counts = np.bincount(group)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # First and last 0-based positions of each group average to
    # (start + (count-1)/2); +1 converts to 1-based ranks.
    mean_rank = starts + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(n)
    ranks[order] = mean_rank[group]
    return ranks


def spearman_rank_correlation(
    first: Sequence[float], second: Sequence[float]
) -> float:
    """Spearman's ρ between two paired sequences (ties share mean rank)."""
    if len(first) != len(second):
        raise AnalysisError("sequences must be paired")
    if len(first) < 3:
        raise AnalysisError("need at least 3 pairs for a rank correlation")
    ra = average_ranks(first)
    rb = average_ranks(second)
    da = ra - ra.mean()
    db = rb - rb.mean()
    var_a = float(da @ da)
    var_b = float(db @ db)
    if var_a == 0 or var_b == 0:
        raise AnalysisError("rank correlation undefined for constant input")
    return float(da @ db) / (var_a * var_b) ** 0.5


def silicon_ranking_quality(submissions: Sequence[Submission]) -> float:
    """How well scores recover the true silicon ordering.

    Returns Spearman's ρ between −leak_factor (less leakage = better
    silicon) and score; 1.0 means the crowd data ranks units exactly as
    their silicon would under lab conditions.
    """
    if len(submissions) < 3:
        raise AnalysisError("need at least 3 submissions to grade a ranking")
    truth = [-s.true_leak_factor for s in submissions]
    scores = [s.score for s in submissions]
    return spearman_rank_correlation(truth, scores)
