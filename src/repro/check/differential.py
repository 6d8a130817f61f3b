"""Differential (A/B) testing of the simulator's independent fast paths.

The study's results must not depend on *how* they were computed: the
sub-stepped Euler integrator and the exact ``expm`` propagator model the
same physics, the sleep fast-forward is an exact macro step, and the
parallel executor is bit-identical to the serial loop by construction.
This module runs the same scenario under paired configurations and
compares the results field by field against declarative tolerance specs,
reporting the first divergence with its context (unit, iteration, field —
and for traces, sim-time and protocol phase).

Vocabulary
----------
:class:`Tolerance`
    How far two values of one field may drift: ``abs_tol + rel_tol *
    max(|a|, |b|)``, numpy.isclose-style.  The default is exact equality.
:class:`ToleranceSpec`
    A named map of field → :class:`Tolerance` plus a default for fields
    without an entry; knows how to diff scalars, result objects and traces.
:class:`Pairing`
    Two campaign configurations expected to agree within a spec
    (``euler↔expm``, ``serial↔jobs=N``, ``fast-forward on↔off``), each
    run on a named engine (``serial↔batched``, see
    :func:`run_fleet_on_engine` — the one place an engine is forced).
:class:`DifferentialReport`
    The outcome of one pairing over one or more models — renders either
    "agreed within tolerances" or the first divergence, with counts.

The mutation smoke test (``tests/check/test_mutation.py``) perturbs a
solver constant and asserts the harness flags it — proving these checks
have teeth, not just green lights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import AccubenchConfig
from repro.core.experiments import ExperimentSpec
from repro.core.parallel import BatchTask, DeviceTask, run_tasks
from repro.core.results import DeviceResult, ExperimentResult, IterationResult
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.core.serialize import iteration_to_dict
from repro.errors import CheckError
from repro.sim.trace import Trace


@dataclass(frozen=True)
class Tolerance:
    """Allowed drift between two values of one field.

    ``abs_tol`` and ``rel_tol`` combine additively (numpy.isclose-style):
    values agree when ``|a - b| <= abs_tol + rel_tol * max(|a|, |b|)``.
    The zero default demands exact equality — the right spec for paths
    that are bit-identical by construction (serial vs parallel).
    """

    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise CheckError(f"{name} must be finite and non-negative")

    def allows(self, a: float, b: float) -> bool:
        """Whether two values agree within this tolerance."""
        if math.isnan(a) or math.isnan(b):
            return False
        return abs(a - b) <= self.abs_tol + self.rel_tol * max(abs(a), abs(b))


#: Exact-equality tolerance (the strictest possible spec).
EXACT = Tolerance()


@dataclass(frozen=True)
class Divergence:
    """One field disagreement between the A and B sides of a pairing."""

    field: str
    context: str
    value_a: float
    value_b: float
    sim_time_s: Optional[float] = None
    phase: Optional[str] = None

    @property
    def abs_delta(self) -> float:
        """Absolute disagreement."""
        return abs(self.value_a - self.value_b)

    def describe(self) -> str:
        """Human-readable one-liner."""
        where = f" at t={self.sim_time_s:.1f} s" if self.sim_time_s is not None else ""
        phase = f" (phase {self.phase})" if self.phase else ""
        return (
            f"{self.context}: {self.field} diverged{where}{phase}: "
            f"A={self.value_a:.6g} B={self.value_b:.6g} "
            f"(|Δ|={self.abs_delta:.3g})"
        )


@dataclass(frozen=True)
class ToleranceSpec:
    """A named, declarative map of result fields to tolerances.

    ``fields`` lists per-field tolerances; anything not listed falls back
    to ``default`` (exact equality unless overridden).  The compare
    methods walk result structures and return every divergence found, in
    traversal order — the first entry is the first divergence.
    """

    name: str
    fields: Tuple[Tuple[str, Tolerance], ...] = ()
    default: Tolerance = EXACT

    def tolerance_for(self, field_name: str) -> Tolerance:
        """The tolerance governing one field."""
        for name, tolerance in self.fields:
            if name == field_name:
                return tolerance
        return self.default

    def compare_scalar(
        self,
        field_name: str,
        a: float,
        b: float,
        context: str = "",
        sim_time_s: Optional[float] = None,
        phase: Optional[str] = None,
    ) -> Optional[Divergence]:
        """Diff one value pair; ``None`` means they agree."""
        if self.tolerance_for(field_name).allows(a, b):
            return None
        return Divergence(
            field=field_name,
            context=context,
            value_a=float(a),
            value_b=float(b),
            sim_time_s=sim_time_s,
            phase=phase,
        )

    def compare_mapping(
        self, a: Mapping[str, float], b: Mapping[str, float], context: str = ""
    ) -> List[Divergence]:
        """Diff two flat numeric mappings (shared numeric keys only)."""
        divergences = []
        for key in a:
            if key not in b:
                continue
            va, vb = a[key], b[key]
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                found = self.compare_scalar(key, va, vb, context=context)
                if found is not None:
                    divergences.append(found)
        return divergences

    def compare_iteration(
        self, a: IterationResult, b: IterationResult, context: str = ""
    ) -> List[Divergence]:
        """Diff two protocol iterations field by field."""
        return self.compare_mapping(
            iteration_to_dict(a), iteration_to_dict(b), context=context
        )

    def compare_device(self, a: DeviceResult, b: DeviceResult) -> List[Divergence]:
        """Diff two units' iteration batches."""
        if a.serial != b.serial or len(a.iterations) != len(b.iterations):
            raise CheckError(
                "differential compare requires matching units and iteration "
                f"counts (got {a.serial}×{len(a.iterations)} vs "
                f"{b.serial}×{len(b.iterations)})"
            )
        divergences = []
        for index, (ia, ib) in enumerate(zip(a.iterations, b.iterations)):
            divergences.extend(
                self.compare_iteration(
                    ia, ib, context=f"{a.model}/{a.serial}/iter-{index}"
                )
            )
        return divergences

    def compare_experiment(
        self, a: ExperimentResult, b: ExperimentResult
    ) -> List[Divergence]:
        """Diff two fleet experiments unit by unit."""
        if a.serials != b.serials:
            raise CheckError(
                f"fleets differ: {a.serials} vs {b.serials} — differential "
                "compare requires the same units on both sides"
            )
        divergences = []
        for da, db in zip(a.devices, b.devices):
            divergences.extend(self.compare_device(da, db))
        return divergences

    def compare_trace(
        self, a: Trace, b: Trace, context: str = ""
    ) -> List[Divergence]:
        """Diff two traces sample by sample, annotating divergences with
        sim-time and the protocol phase containing them.

        Requires identical channel sets and sample counts (pairings whose
        trace grids legitimately differ — the fast-forward decimates
        cooldown sampling — compare scalar results instead).
        """
        if a.channels != b.channels:
            raise CheckError(
                f"traces declare different channels: {a.channels} vs {b.channels}"
            )
        divergences: List[Divergence] = []
        if len(a) != len(b):
            divergences.append(
                Divergence(
                    field="len",
                    context=context or "trace",
                    value_a=float(len(a)),
                    value_b=float(len(b)),
                )
            )
            return divergences
        if len(a) == 0:
            return divergences
        times_a, times_b = a.times(), b.times()
        time_tol = self.tolerance_for("time")
        for channel_name, column_a, column_b in (
            [("time", times_a, times_b)]
            + [(name, a.column(name), b.column(name)) for name in a.channels]
        ):
            tolerance = (
                time_tol if channel_name == "time"
                else self.tolerance_for(channel_name)
            )
            for index in range(len(column_a)):
                va, vb = float(column_a[index]), float(column_b[index])
                if not tolerance.allows(va, vb):
                    when = float(times_a[index])
                    divergences.append(
                        Divergence(
                            field=channel_name,
                            context=context or "trace",
                            value_a=va,
                            value_b=vb,
                            sim_time_s=when,
                            phase=_phase_at(a, when),
                        )
                    )
                    break  # first divergence per channel is enough
        return divergences


def _phase_at(trace: Trace, time_s: float) -> Optional[str]:
    for span in trace.phases:
        if span.contains(time_s):
            return span.name
    return None


# -- tolerance specs for the standard pairings ----------------------------

#: Bit-identical paths: the parallel executor's contract.
EXACT_SPEC = ToleranceSpec(name="exact")

#: Euler vs the exact propagator: same physics, different integrators.
#: Cooldown length may differ by one poll window (its end is quantized to
#: the sensor poll); discrete throttle decisions near a threshold can
#: nudge the performance/energy integrals by a fraction of a percent.
SOLVER_SPEC = ToleranceSpec(
    name="euler-vs-expm",
    fields=(
        ("iterations_completed", Tolerance(rel_tol=0.02)),
        ("energy_j", Tolerance(rel_tol=0.02)),
        ("mean_power_w", Tolerance(rel_tol=0.02)),
        ("mean_freq_mhz", Tolerance(rel_tol=0.02)),
        ("max_cpu_temp_c", Tolerance(abs_tol=1.0)),
        ("cooldown_s", Tolerance(abs_tol=10.01)),
        ("time_throttled_s", Tolerance(abs_tol=8.0)),
    ),
)

#: Batched vs serial engine (both expm, fast-forward on): the batched
#: step replays the serial control flow draw-for-draw, so the only real
#: freedom is BLAS summation order — the stacked thermal update is a GEMM
#: where the serial path runs per-unit GEMVs, and per-core power sums
#: collapse behind vectorized reductions.  Those are ulp-level (~1e-13 °C
#: on traces); the budgets below leave three orders of magnitude of
#: headroom while still catching any real modelling drift.  The discrete
#: fields stay effectively exact: a last-ulp temperature wiggle can only
#: move a cooldown exit (or a throttle decision) if a quantized sensor
#: read lands exactly on a rounding boundary, so one poll window / one
#: trace sample of slack covers it.
BATCH_SPEC = ToleranceSpec(
    name="batched-vs-serial",
    fields=(
        ("iterations_completed", Tolerance(rel_tol=1e-9)),
        ("energy_j", Tolerance(rel_tol=1e-9)),
        ("mean_power_w", Tolerance(rel_tol=1e-9)),
        ("mean_freq_mhz", Tolerance(rel_tol=1e-6)),
        ("max_cpu_temp_c", Tolerance(abs_tol=1e-6)),
        ("cooldown_s", Tolerance(abs_tol=5.01)),
        ("time_throttled_s", Tolerance(abs_tol=2.0)),
    ),
    default=Tolerance(abs_tol=1e-9),
)

#: Streamed crowd engine vs the serial §VI reference.  Per-submission
#: fields replay draw-for-draw (the probe's observe window is one exact
#: macro propagation per poll, and the sensor quantizes to 0.1 °C, so the
#: fitted ambient estimates are usually *bit*-identical); the only real
#: drift is the battery's energy integral, accumulated per-step serially
#: but per-poll-window batched — ulp-level, budgeted like BATCH_SPEC.
#: Streaming estimator outputs are exact where the math guarantees it
#: (moments fold the same values in the same order; a non-overflowed
#: reservoir holds the full stream) and within a calibrated band where it
#: does not (P² quantiles are approximations beyond five samples).
CROWD_SPEC = ToleranceSpec(
    name="streamed-vs-serial-crowd",
    fields=(
        ("score", Tolerance(rel_tol=1e-9)),
        ("energy_j", Tolerance(rel_tol=1e-9)),
        ("ambient_c", Tolerance(abs_tol=1e-9)),
        ("time_constant_s", Tolerance(abs_tol=1e-6)),
        ("r_squared", Tolerance(abs_tol=1e-9)),
        ("true_ambient_c", Tolerance()),
        ("true_leak_factor", Tolerance()),
        ("score_mean", Tolerance(rel_tol=1e-9)),
        ("score_std", Tolerance(rel_tol=1e-9, abs_tol=1e-12)),
        ("energy_mean_j", Tolerance(rel_tol=1e-9)),
        ("quantile", Tolerance(rel_tol=0.15)),
        ("ranking_quality_raw", Tolerance(abs_tol=1e-12)),
        ("ranking_quality_filtered", Tolerance(abs_tol=1e-12)),
        ("bin_ordering_quality", Tolerance(abs_tol=1e-12)),
    ),
)

#: Fast-forward on vs off (both expm): the macro step is exact, so only
#: sensor-noise draw alignment at poll boundaries may wiggle the cooldown
#: end by one window; everything thermal/energetic must agree tightly.
FAST_FORWARD_SPEC = ToleranceSpec(
    name="fast-forward",
    fields=(
        ("iterations_completed", Tolerance(rel_tol=0.01)),
        ("energy_j", Tolerance(rel_tol=0.01)),
        ("mean_power_w", Tolerance(rel_tol=0.01)),
        # A unit sitting right at its throttle threshold may clip one
        # mitigation step in one run and not the other, which moves the
        # workload-mean frequency a couple of percent.
        ("mean_freq_mhz", Tolerance(rel_tol=0.03)),
        # The macro step lands the cooldown anywhere inside the poll
        # window the stepped run would have crossed the target in, so the
        # next iteration starts up to a poll period cooler/warmer and its
        # peak shifts by a few tenths of a degree.
        ("max_cpu_temp_c", Tolerance(abs_tol=0.5)),
        ("cooldown_s", Tolerance(abs_tol=10.01)),
        ("time_throttled_s", Tolerance(abs_tol=4.0)),
    ),
)


# -- engines ---------------------------------------------------------------

#: The engines a pairing side may name.  ``"auto"`` is the campaign
#: runner's own choice (the one every production run takes); ``"serial"``
#: and ``"batched"`` force an engine whatever the fleet's size.
ENGINES = ("auto", "serial", "batched")


def _require_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise CheckError(f"unknown engine {engine!r}; choose one of {ENGINES}")


def run_fleet_on_engine(
    engine: str,
    config: CampaignConfig,
    model: str,
    experiment: ExperimentSpec,
    devices: Optional[Sequence] = None,
    iterations: Optional[int] = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Run one fleet on a named engine (one of :data:`ENGINES`).

    ``"auto"`` is :meth:`CampaignRunner.run_fleet`.  ``"serial"`` runs
    one :class:`DeviceTask` per unit and ``"batched"`` one
    :class:`BatchTask` over the whole fleet, both through
    :func:`~repro.core.parallel.run_tasks`; the batched engine raises
    :class:`~repro.errors.ConfigurationError` on an ineligible fleet
    rather than quietly comparing the serial engine with itself.
    """
    _require_engine(engine)
    runner = CampaignRunner(config)
    if engine == "auto":
        return runner.run_fleet(
            model, experiment, devices=devices, iterations=iterations, jobs=jobs
        )
    if iterations is not None:
        config = _with_protocol(config, iterations=iterations)
    fleet = runner._build_fleet(model, devices)
    if engine == "serial":
        tasks = [DeviceTask(device, experiment, config) for device in fleet]
    else:
        tasks = [BatchTask(tuple(fleet), (experiment,) * len(fleet), config)]
    results = run_tasks(tasks, jobs)
    return ExperimentResult(
        model=model, workload=experiment.name, devices=tuple(results)
    )


# -- pairings --------------------------------------------------------------

@dataclass(frozen=True)
class Pairing:
    """Two campaign configurations expected to agree within a spec.

    ``fleet_factory``, when set, builds the devices both sides run instead
    of the model's default paper fleet — it is called once per side with
    that side's :class:`CampaignConfig` and the model label, and must
    return freshly constructed devices (simulation mutates them).  This is
    how scenario pairings that need non-catalog hardware (a fitted skin
    throttle, a heterogeneous fleet) stay declarative.  ``models``, when
    set, overrides the caller's model list for this pairing — a factory
    that ignores its model argument (the mixed fleet) pairs it with a
    single descriptive label.  ``compare_traces`` extends the comparison
    from scalar result fields to the raw trace sample buffers — the gate
    the jobs pairings use, since a result transport that corrupted a
    trace byte could still agree on every derived scalar.  ``engine_a``
    and ``engine_b`` name the engine each side runs on (see
    :data:`ENGINES`).
    """

    name: str
    label_a: str
    label_b: str
    config_a: CampaignConfig
    config_b: CampaignConfig
    spec: ToleranceSpec
    jobs_a: int = 1
    jobs_b: int = 1
    engine_a: str = "auto"
    engine_b: str = "auto"
    fleet_factory: Optional[Callable[[CampaignConfig, str], List]] = None
    models: Optional[Tuple[str, ...]] = None
    compare_traces: bool = False

    def __post_init__(self) -> None:
        _require_engine(self.engine_a)
        _require_engine(self.engine_b)
        if (self.config_a, self.jobs_a, self.engine_a) == (
            self.config_b, self.jobs_b, self.engine_b
        ):
            raise CheckError(
                f"pairing {self.name!r} runs the identical configuration on "
                "both sides; it can never diverge"
            )


def _with_protocol(base: CampaignConfig, **overrides) -> CampaignConfig:
    return replace(base, accubench=replace(base.accubench, **overrides))


def solver_pairing(base: CampaignConfig) -> Pairing:
    """Euler vs the exact ``expm`` propagator (fast-forward off on both,
    so the comparison isolates the integrator)."""
    return Pairing(
        name="solver",
        label_a="euler",
        label_b="expm",
        config_a=_with_protocol(
            base, thermal_solver="euler", sleep_fast_forward=False
        ),
        config_b=_with_protocol(
            base, thermal_solver="expm", sleep_fast_forward=False
        ),
        spec=SOLVER_SPEC,
    )


def fast_forward_pairing(base: CampaignConfig) -> Pairing:
    """Sleep fast-forward off vs on, both under the exact propagator."""
    return Pairing(
        name="fast-forward",
        label_a="expm/ff-off",
        label_b="expm/ff-on",
        config_a=_with_protocol(
            base, thermal_solver="expm", sleep_fast_forward=False
        ),
        config_b=_with_protocol(
            base, thermal_solver="expm", sleep_fast_forward=True
        ),
        spec=FAST_FORWARD_SPEC,
    )


def jobs_pairing(base: CampaignConfig, jobs: int) -> Pairing:
    """Serial in-process vs ``jobs`` workers on the shared-memory pool —
    bit-identical down to the raw trace bytes.

    Both sides keep full traces, so the pool's segment transport and
    parent-side attach are exercised and diffed on every run.
    """
    if jobs < 2:
        raise CheckError("jobs pairing needs at least 2 workers on the B side")
    traced = _with_protocol(base, keep_traces=True)
    return Pairing(
        name=f"jobs-{jobs}",
        label_a="serial",
        label_b=f"jobs={jobs}",
        config_a=traced,
        config_b=traced,
        spec=EXACT_SPEC,
        jobs_a=1,
        jobs_b=jobs,
        compare_traces=True,
    )


def batch_pairing(base: CampaignConfig) -> Pairing:
    """Serial per-unit worlds vs the lock-step batched engine.

    Both sides run the exact propagator with the sleep fast-forward on —
    the configuration the batched engine requires — so the comparison
    isolates the batching itself."""
    config = _with_protocol(base, thermal_solver="expm", sleep_fast_forward=True)
    return Pairing(
        name="batch",
        label_a="serial-engine",
        label_b="batched-engine",
        config_a=config,
        config_b=config,
        spec=BATCH_SPEC,
        engine_a="serial",
        engine_b="batched",
    )


# -- scenario pairings: the batch-eligibility parity matrix ----------------
#
# Every scenario the batched engine claims to handle (see
# ``repro.core.batch_runner.batch_ineligibility_reason``) gets a gating
# serial↔batched pairing of its own, so a regression in any newly lifted
# restriction — vectorized invariants, memory-bounded workloads, skin
# throttling, heterogeneous fleets — fails ``repro-bench check
# --differential``, not just a unit test.

#: The heterogeneous fleet the mixed pairing runs (both models' paper
#: units, interleaved).
MIXED_FLEET_MODELS: Tuple[str, str] = ("Nexus 5", "Nexus 6")

#: Label under which the mixed pairing reports (it runs one combined
#: fleet, not one fleet per catalog model).
MIXED_FLEET_LABEL = "+".join(MIXED_FLEET_MODELS)


def _skin_throttle_fleet(config: CampaignConfig, model: str) -> List:
    """The model's paper fleet with a skin-temperature throttle fitted.

    No catalog spec ships one, so the scenario is built explicitly: every
    unit gets the default :class:`~repro.thermal.skin.SkinThrottleSpec`
    on top of its catalog hardware.
    """
    from repro.device.catalog import device_spec
    from repro.device.fleet import PAPER_FLEETS, build_device
    from repro.thermal.skin import SkinThrottleSpec

    spec = replace(device_spec(model), skin_throttle=SkinThrottleSpec())
    return [
        build_device(
            unit,
            spec=spec,
            root_seed=config.root_seed,
            initial_temp_c=config.ambient_c,
            thermal_solver=config.accubench.thermal_solver,
        )
        for unit in PAPER_FLEETS[model]
    ]


def _mixed_model_fleet(config: CampaignConfig, model: str) -> List:
    """Both :data:`MIXED_FLEET_MODELS` paper fleets, interleaved.

    Interleaving (rather than concatenating) makes the cohort facade's
    gather/scatter carry its weight: units of the same model are never
    adjacent, so any fleet-order bug shows up immediately.  The ``model``
    argument is the report label and is deliberately ignored.
    """
    from repro.device.fleet import paper_fleet

    fleets = [
        paper_fleet(
            name,
            root_seed=config.root_seed,
            initial_temp_c=config.ambient_c,
            thermal_solver=config.accubench.thermal_solver,
        )
        for name in MIXED_FLEET_MODELS
    ]
    mixed = []
    for index in range(max(len(fleet) for fleet in fleets)):
        for fleet in fleets:
            if index < len(fleet):
                mixed.append(fleet[index])
    return mixed


def _batch_scenario_pairing(
    base: CampaignConfig,
    name: str,
    scenario: str,
    overrides: Mapping[str, object],
    fleet_factory: Optional[Callable[[CampaignConfig, str], List]] = None,
    models: Optional[Tuple[str, ...]] = None,
) -> Pairing:
    config = _with_protocol(
        base, thermal_solver="expm", sleep_fast_forward=True, **overrides
    )
    return Pairing(
        name=name,
        label_a=f"serial/{scenario}",
        label_b=f"batched/{scenario}",
        config_a=config,
        config_b=config,
        spec=BATCH_SPEC,
        engine_a="serial",
        engine_b="batched",
        fleet_factory=fleet_factory,
        models=models,
    )


def batch_invariants_pairing(base: CampaignConfig) -> Pairing:
    """Serial vs batched with the runtime invariant suite armed on both
    sides: the batched engine must replay the serial results within
    :data:`BATCH_SPEC` *while* its cohort observer checks every
    step (and neither side may raise)."""
    return _batch_scenario_pairing(
        base, "batch-invariants", "invariants", {"check_invariants": True}
    )


def batch_memory_bound_pairing(base: CampaignConfig) -> Pairing:
    """Serial vs batched under a memory-bounded, partially utilized
    workload — the batched per-core roofline share must match the serial
    :class:`~repro.soc.cluster.ClusterState` math draw-for-draw."""
    return _batch_scenario_pairing(
        base,
        "batch-memory-bound",
        "mem-bound",
        {"utilization": 0.9, "memory_boundedness": 0.35},
    )


def batch_skin_throttle_pairing(base: CampaignConfig) -> Pairing:
    """Serial vs batched on fleets fitted with a skin-temperature
    throttle, exercising the vectorized surface-temperature governor."""
    return _batch_scenario_pairing(
        base,
        "batch-skin-throttle",
        "skin",
        {},
        fleet_factory=_skin_throttle_fleet,
    )


def mixed_fleet_pairing(base: CampaignConfig) -> Pairing:
    """Serial vs batched on one heterogeneous (two-model, interleaved)
    fleet: the facade's per-model cohort blocks must reproduce the serial
    per-unit results in fleet order."""
    return _batch_scenario_pairing(
        base,
        "batch-mixed-fleet",
        "mixed",
        {},
        fleet_factory=_mixed_model_fleet,
        models=(MIXED_FLEET_LABEL,),
    )


def default_pairings(base: CampaignConfig) -> Tuple[Pairing, ...]:
    """The standard battery: euler↔expm, serial↔{2,4} jobs (traces
    included, so the shared-memory transport is diffed byte for byte),
    ff on↔off, serial↔batched engine, and the batch-eligibility parity
    matrix (invariants on, memory-bounded, skin-throttled, mixed
    fleet)."""
    return (
        solver_pairing(base),
        jobs_pairing(base, 2),
        jobs_pairing(base, 4),
        fast_forward_pairing(base),
        batch_pairing(base),
        batch_invariants_pairing(base),
        batch_memory_bound_pairing(base),
        batch_skin_throttle_pairing(base),
        mixed_fleet_pairing(base),
    )


# -- reports ---------------------------------------------------------------

@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one pairing across one or more fleets."""

    name: str
    label_a: str
    label_b: str
    models: Tuple[str, ...]
    compared_fields: int
    divergences: Tuple[Divergence, ...] = field(default=())

    @property
    def passed(self) -> bool:
        """Whether every compared field agreed within its tolerance."""
        return not self.divergences

    @property
    def first_divergence(self) -> Optional[Divergence]:
        """The earliest disagreement found, if any."""
        return self.divergences[0] if self.divergences else None

    def render(self) -> str:
        """Human-readable summary (one block per report)."""
        status = "PASS" if self.passed else "FAIL"
        head = (
            f"[{status}] {self.name}: {self.label_a} vs {self.label_b} on "
            f"{', '.join(self.models)} ({self.compared_fields} fields)"
        )
        if self.passed:
            return head
        lines = [head]
        for divergence in self.divergences[:5]:
            lines.append(f"    {divergence.describe()}")
        hidden = len(self.divergences) - 5
        if hidden > 0:
            lines.append(f"    ... and {hidden} more divergence(s)")
        return "\n".join(lines)


def _compare_result_traces(
    spec: ToleranceSpec, a: ExperimentResult, b: ExperimentResult
) -> Tuple[int, List[Divergence]]:
    """Diff every kept trace; returns (traces compared, divergences).

    Equality is checked on the raw sample buffers first — the cheap path
    a correct transport always takes — and only a mismatch pays for the
    per-sample walk that names the first diverging channel and phase.
    """
    compared = 0
    divergences: List[Divergence] = []
    for da, db in zip(a.devices, b.devices):
        for index, (ia, ib) in enumerate(zip(da.iterations, db.iterations)):
            ta, tb = ia.trace, ib.trace
            if ta is None and tb is None:
                continue
            context = f"{da.model} {da.serial} iter {index} trace"
            if ta is None or tb is None:
                divergences.append(
                    Divergence(
                        field="trace-present",
                        context=context,
                        value_a=float(ta is not None),
                        value_b=float(tb is not None),
                    )
                )
                continue
            compared += 1
            if (
                ta.samples().tobytes() == tb.samples().tobytes()
                and list(ta.phases) == list(tb.phases)
                and ta.open_phase == tb.open_phase
            ):
                continue
            detail = spec.compare_trace(ta, tb, context=context)
            if detail:
                divergences.extend(detail)
            else:
                # Samples agree but phase annotations do not (or the
                # per-sample walk could not localize the byte diff).
                divergences.append(
                    Divergence(
                        field="trace-bytes",
                        context=context,
                        value_a=float(len(ta)),
                        value_b=float(len(tb)),
                    )
                )
    return compared, divergences


def run_pairing(
    pairing: Pairing,
    models: Sequence[str],
    iterations: Optional[int] = None,
) -> DifferentialReport:
    """Run one pairing's A and B configurations over the given fleets.

    Both sides run the UNCONSTRAINED workload — the throttling-rich
    configuration where solver and scheduling differences would show —
    on each model's paper fleet (or on whatever the pairing's
    ``fleet_factory`` builds), and every scalar result field is diffed
    against the pairing's tolerance spec.  A pairing with its own
    ``models`` list overrides the caller's.
    """
    from repro.core.experiments import unconstrained

    if pairing.models is not None:
        models = pairing.models
    divergences: List[Divergence] = []
    compared = 0
    for model in models:
        devices_a = devices_b = None
        if pairing.fleet_factory is not None:
            devices_a = pairing.fleet_factory(pairing.config_a, model)
            devices_b = pairing.fleet_factory(pairing.config_b, model)
        result_a = run_fleet_on_engine(
            pairing.engine_a,
            pairing.config_a,
            model,
            unconstrained(),
            devices=devices_a,
            iterations=iterations,
            jobs=pairing.jobs_a,
        )
        result_b = run_fleet_on_engine(
            pairing.engine_b,
            pairing.config_b,
            model,
            unconstrained(),
            devices=devices_b,
            iterations=iterations,
            jobs=pairing.jobs_b,
        )
        divergences.extend(pairing.spec.compare_experiment(result_a, result_b))
        compared += sum(
            len(iteration_to_dict(it)) - 3  # numeric fields only
            for device in result_a.devices
            for it in device.iterations
        )
        if pairing.compare_traces:
            traced, trace_divergences = _compare_result_traces(
                pairing.spec, result_a, result_b
            )
            compared += traced
            divergences.extend(trace_divergences)
    return DifferentialReport(
        name=pairing.name,
        label_a=pairing.label_a,
        label_b=pairing.label_b,
        models=tuple(models),
        compared_fields=compared,
        divergences=tuple(divergences),
    )


def run_differential(
    models: Optional[Sequence[str]] = None,
    base: Optional[CampaignConfig] = None,
    pairings: Optional[Sequence[Pairing]] = None,
    iterations: Optional[int] = None,
) -> List[DifferentialReport]:
    """Run the standard (or a custom) pairing battery over the catalog.

    ``models`` defaults to every paper fleet; ``base`` defaults to a
    chamber-less, heavily scaled protocol sized so the whole 5-SoC battery
    finishes in CI time — pass a custom config for paper-length runs.
    """
    if models is None:
        from repro.device.fleet import PAPER_FLEETS

        models = tuple(PAPER_FLEETS)
    if base is None:
        base = default_differential_config()
    chosen = pairings if pairings is not None else default_pairings(base)
    return [run_pairing(pairing, models, iterations=iterations) for pairing in chosen]


def default_differential_config(
    scale: float = 0.05, root_seed: Optional[int] = None
) -> CampaignConfig:
    """The harness's default scenario config: scaled protocol, no chamber."""
    protocol = AccubenchConfig().scaled(scale)
    kwargs: Dict[str, object] = {"accubench": protocol, "use_thermabox": False}
    if root_seed is not None:
        kwargs["root_seed"] = root_seed
    return CampaignConfig(**kwargs)


# -- crowd: streamed vs serial ---------------------------------------------

def default_crowd_differential_config(user_count: int = 12):
    """A field-protocol :class:`~repro.core.crowd.CrowdConfig` small enough
    for an unconditional CI gate: exact solver (the streamed engine's
    requirement), short probe and workload windows."""
    from repro.core.crowd import CrowdConfig

    protocol = AccubenchConfig(
        warmup_s=20.0,
        workload_s=30.0,
        cooldown_target_c=40.0,
        cooldown_timeout_s=3600.0,
        iterations=1,
        dt=0.5,
        trace_decimation=20,
        thermal_solver="expm",
    )
    return CrowdConfig(
        user_count=user_count,
        protocol=protocol,
        probe_heat_s=30.0,
        probe_observe_s=120.0,
    )


def crowd_stream_pairing_report(
    config=None,
    cohort_size: int = 4,
    reservoir_capacity: Optional[int] = None,
) -> DifferentialReport:
    """Streamed crowd campaign vs the serial §VI reference, one report.

    Runs the serial oracle :func:`~repro.check.oracles.run_crowd_study` and
    :func:`~repro.core.crowd_stream.run_streaming_crowd_study` on the same
    configuration and diffs (a) every submission field pair, in population
    order, (b) the drop accounting, and (c) every streaming-estimator
    output against its exact in-memory computation over the serial
    submissions.  ``reservoir_capacity`` defaults to the population size,
    keeping the ranking reservoirs exact so those fields gate tightly.
    """
    import numpy as np

    from repro.check.oracles import run_crowd_study
    from repro.core.crowd import (
        silicon_ranking_quality,
        spearman_rank_correlation,
        strict_filters,
    )
    from repro.core.crowd_stream import run_streaming_crowd_study
    from repro.errors import AnalysisError

    if config is None:
        config = default_crowd_differential_config()
    if reservoir_capacity is None:
        reservoir_capacity = max(3, config.user_count)

    serial = run_crowd_study(config)
    collected = []
    stream = run_streaming_crowd_study(
        config,
        cohort_size=cohort_size,
        reservoir_capacity=reservoir_capacity,
        on_submission=collected.append,
    )

    spec = CROWD_SPEC
    divergences: List[Divergence] = []
    compared = 0

    def check(field_name: str, a: float, b: float, context: str) -> None:
        nonlocal compared
        compared += 1
        found = spec.compare_scalar(field_name, a, b, context=context)
        if found is not None:
            divergences.append(found)

    check(
        "submission_count",
        float(len(serial)),
        float(len(collected)),
        "crowd/yield",
    )
    for reason in sorted(set(serial.dropped) | set(stream.dropped)):
        check(
            f"dropped.{reason}",
            float(serial.dropped.get(reason, 0)),
            float(stream.dropped.get(reason, 0)),
            "crowd/yield",
        )
    for a, b in zip(serial, collected):
        if a.serial != b.serial:
            raise CheckError(
                f"streamed submissions out of population order: "
                f"{a.serial} vs {b.serial}"
            )
        context = f"{config.model}/{a.serial}"
        check("score", a.score, b.score, context)
        check("energy_j", a.energy_j, b.energy_j, context)
        check(
            "ambient_c",
            a.ambient_estimate.ambient_c,
            b.ambient_estimate.ambient_c,
            context,
        )
        check(
            "time_constant_s",
            a.ambient_estimate.time_constant_s,
            b.ambient_estimate.time_constant_s,
            context,
        )
        check(
            "r_squared",
            a.ambient_estimate.r_squared,
            b.ambient_estimate.r_squared,
            context,
        )
        check(
            "sample_count",
            float(a.ambient_estimate.sample_count),
            float(b.ambient_estimate.sample_count),
            context,
        )
        check("true_ambient_c", a.true_ambient_c, b.true_ambient_c, context)
        check(
            "true_leak_factor", a.true_leak_factor, b.true_leak_factor, context
        )

    # Streaming estimates vs exact in-memory computation.
    if len(serial) > 0:
        scores = np.array([s.score for s in serial])
        energies = np.array([s.energy_j for s in serial])
        context = "crowd/estimators"
        check("score_mean", float(scores.mean()), stream.score_mean, context)
        check("score_std", float(scores.std()), stream.score_std, context)
        check(
            "energy_mean_j", float(energies.mean()), stream.energy_mean_j, context
        )
        for key, estimate in stream.score_quantiles.items():
            exact = float(np.quantile(scores, int(key[1:]) / 100.0))
            compared += 1
            found = spec.compare_scalar(
                "quantile", exact, estimate, context=f"{context}/{key}"
            )
            if found is not None:
                divergences.append(found)
        if len(serial) >= 3 and stream.ranking_quality_raw is not None:
            check(
                "ranking_quality_raw",
                silicon_ranking_quality(serial.submissions),
                stream.ranking_quality_raw,
                context,
            )
        kept = strict_filters(serial.submissions)
        if len(kept) >= 3 and stream.ranking_quality_filtered is not None:
            check(
                "ranking_quality_filtered",
                silicon_ranking_quality(kept),
                stream.ranking_quality_filtered,
                context,
            )
        if stream.bin_ordering_quality is not None:
            by_bin: Dict[int, List[float]] = {}
            for submission, bin_index in zip(
                collected, _streamed_bin_indices(config, collected)
            ):
                by_bin.setdefault(bin_index, []).append(submission.score)
            indices = sorted(by_bin)
            try:
                exact_quality = spearman_rank_correlation(
                    [float(i) for i in indices],
                    [float(np.mean(by_bin[i])) for i in indices],
                )
                check(
                    "bin_ordering_quality",
                    exact_quality,
                    stream.bin_ordering_quality,
                    context,
                )
            except AnalysisError:
                pass

    return DifferentialReport(
        name="crowd-stream",
        label_a="serial-crowd",
        label_b="streamed-crowd",
        models=(config.model,),
        compared_fields=compared,
        divergences=tuple(divergences),
    )


def _streamed_bin_indices(config, submissions) -> List[int]:
    """Ground-truth voltage bins for submissions, recomputed from serials.

    Unit silicon is keyed by serial alone, so rebuilding the devices (no
    simulation) recovers exactly the bins the streamed engine recorded.
    """
    from repro.core.crowd import crowd_fleet

    fleet = crowd_fleet(config)
    bins = {
        device.serial: device.soc.clusters[0].bin_index for device in fleet
    }
    return [bins[s.serial] for s in submissions]
