"""Correctness tooling: invariants, differential testing, golden traces.

The repro now has several independent fast paths — the vectorized engine
loop, the exact ``expm`` propagator, the sleep fast-forward and the
parallel executor — whose agreement used to be asserted ad hoc.  This
package makes cross-implementation agreement and physical plausibility
machine-checked:

:mod:`repro.check.invariants`
    Opt-in runtime checkers for a :class:`~repro.sim.engine.World` or a
    batched cohort, each written once (energy accounting, temperature
    bounds, monotone cooldown, throttle consistency, trace time
    ordering).  Zero-cost when not attached.
:mod:`repro.check.differential`
    An A/B harness running the same scenario under paired configurations
    (euler↔expm, serial↔parallel, fast-forward on↔off) and comparing
    results against declarative per-field tolerance specs.
:mod:`repro.check.oracles`
    Serial reference implementations kept only to check production
    paths against: :func:`~repro.check.oracles.run_crowd_study`, the
    one-user-at-a-time §VI crowd loop the streamed cohort engine
    replays.
:mod:`repro.check.golden`
    A golden-result store (``tests/golden/*.json``) with load/compare/
    regenerate APIs, gating CI on silent drift.
:mod:`repro.check.strategies`
    Shared Hypothesis strategies and deterministic scenario generators
    (imported lazily — only test code needs Hypothesis).

Entry points: ``repro-bench check`` (``--differential``, ``--invariants``,
``--golden``, ``--update-golden``), ``make check``, and the ``check`` CI
job.  See ``docs/testing.md``.
"""

from repro.check.differential import (
    BATCH_SPEC,
    CROWD_SPEC,
    Divergence,
    DifferentialReport,
    Pairing,
    Tolerance,
    ToleranceSpec,
    batch_pairing,
    crowd_stream_pairing_report,
    default_crowd_differential_config,
    default_pairings,
    fast_forward_pairing,
    jobs_pairing,
    run_differential,
    run_pairing,
    solver_pairing,
)
from repro.check.golden import (
    GOLDEN_FORMAT,
    build_golden,
    check_golden,
    compare_golden,
    golden_path,
    load_golden,
    update_golden,
    write_golden,
)
from repro.check.invariants import (
    EnergyConservation,
    Invariant,
    InvariantSuite,
    MonotoneCooldown,
    TemperatureBounds,
    ThrottleConsistency,
    TraceTimeMonotone,
    default_invariants,
)
from repro.check.oracles import CrowdStudyResult, run_crowd_study
from repro.check.telemetry import (
    TELEMETRY_SPEC,
    telemetry_parity_report,
)

__all__ = [
    "BATCH_SPEC",
    "CROWD_SPEC",
    "Divergence",
    "DifferentialReport",
    "Pairing",
    "Tolerance",
    "ToleranceSpec",
    "batch_pairing",
    "crowd_stream_pairing_report",
    "default_crowd_differential_config",
    "default_pairings",
    "fast_forward_pairing",
    "jobs_pairing",
    "run_differential",
    "run_pairing",
    "solver_pairing",
    "GOLDEN_FORMAT",
    "build_golden",
    "check_golden",
    "compare_golden",
    "golden_path",
    "load_golden",
    "update_golden",
    "write_golden",
    "EnergyConservation",
    "Invariant",
    "InvariantSuite",
    "MonotoneCooldown",
    "TemperatureBounds",
    "ThrottleConsistency",
    "TraceTimeMonotone",
    "default_invariants",
    "CrowdStudyResult",
    "run_crowd_study",
    "TELEMETRY_SPEC",
    "telemetry_parity_report",
]
