"""Runtime physical-invariant checkers, one implementation for both engines.

Each check is a class holding its thresholds, one predicate and one
message builder.  The predicates use plain operators, so the same code
judges Python floats from a serial :class:`~repro.sim.engine.World` and
per-unit numpy arrays from a :class:`~repro.sim.batch.BatchedWorld`
cohort.  Two observers drive them — :class:`InvariantSuite` through the
serial engine's per-step hook (:meth:`World.attach_observer`),
:class:`BatchedInvariantSuite` through the batched engine's tick, macro
window and trace hooks — and both raise the same
:class:`~repro.errors.InvariantViolation`, with sim-time, protocol phase
and device context, the moment the physics stops being plausible:

* **EnergyConservation** — the supply meter's energy must equal the
  integral of the stepped supply power (the Monsoon accounting identity).
* **TemperatureBounds** — no node may cool below the coldest boundary it
  has ever seen, nor heat past the junction ceiling.
* **MonotoneCooldown** — a sleeping device strictly above ambient must
  cool toward it, never away.
* **ThrottleConsistency** — mitigation may only deepen when the die is
  actually hot, and only relax once it has cooled.
* **TraceTimeMonotone** — trace timestamps must strictly increase.

Checkers are **opt-in and zero-cost when disabled**: an unobserved world
runs the exact pre-existing hot loop (``run_for`` checks for an observer
once per call, not per step).  Enable them per run with
``AccubenchConfig(check_invariants=True)``, per world with
``world.attach_observer(InvariantSuite())``, or from the CLI via
``repro-bench check --invariants``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.device.catalog import ThrottleSpec
from repro.device.phone import StepReport
from repro.errors import InvariantViolation
from repro.sim.engine import StepObserver, World

#: No silicon in the catalog survives past this die temperature; anything
#: above it is a simulation bug, not physics.
JUNCTION_MAX_C = 120.0

#: Slack on the lower temperature bound, °C (sub-step transients).
BOUND_MARGIN_C = 0.5

#: A sleeping device must be this far above ambient before monotone
#: cooling is enforced (asymptotic approach wiggles within sensor noise).
COOLDOWN_MARGIN_C = 1.0

#: How far below the throttle threshold the die may read when a
#: mitigation step lands (the policy samples on its own poll grid, up to
#: one poll period before we observe the consequence).
THROTTLE_MARGIN_C = 5.0


def violation(
    name: str, message: str, now_s: float, phase: Optional[str], serial: str
) -> InvariantViolation:
    """The ``[name] message — at t=…, phase …, device …`` diagnostic."""
    return InvariantViolation(
        f"[{name}] {message} — at t={now_s:.2f} s, "
        f"phase {phase or '(no phase)'}, device {serial}"
    )


class Invariant(StepObserver):
    """One named runtime check.

    Subclasses hold the thresholds, predicate and message builder both
    observers call, plus the scalar state their serial hooks keep.
    """

    name = "invariant"

    def violate(self, world: World, message: str) -> None:
        """Raise a violation annotated with the world's context."""
        raise violation(self.name, message, world.now, world.phase, world.device.serial)


class EnergyConservation(Invariant):
    """Supply energy meter == ∫ supply power dt, within tolerance.

    The Monsoon/battery accumulate ``power × dt`` per draw; integrating
    the same product over step reports must land on the same total.  A
    drift means a path is double-counting or skipping draws (the exact
    bug class a macro-step fast-forward could introduce).
    """

    name = "energy-conservation"

    def __init__(self, rel_tol: float = 1e-6, abs_tol: float = 1e-3) -> None:
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self._integral_j = 0.0
        self._baseline_j = 0.0

    def drifted(self, metered_j, integral_j):
        """Drift beyond ``abs_tol + rel_tol × max(metered, integral)``.

        Bounding by each side in turn is the same test as bounding by the
        larger (``rel_tol`` is non-negative), and needs no ``max``.
        """
        drift = abs(metered_j - integral_j)
        return (drift > self.abs_tol + self.rel_tol * metered_j) & (
            drift > self.abs_tol + self.rel_tol * integral_j
        )

    @staticmethod
    def message(metered_j: float, integral_j: float) -> str:
        return (
            f"supply meter reads {metered_j:.6f} J but stepped power integrates "
            f"to {integral_j:.6f} J (drift {abs(metered_j - integral_j):.2e} J)"
        )

    def on_attach(self, world: World) -> None:
        self._baseline_j = self._meter_j(world)

    def on_step(
        self, world: World, report: StepReport, ambient_c: float, dt: float
    ) -> None:
        self._integral_j += report.supply_power_w * dt
        metered = self._meter_j(world) - self._baseline_j
        if self.drifted(metered, self._integral_j):
            self.violate(world, self.message(metered, self._integral_j))

    @staticmethod
    def _meter_j(world: World) -> float:
        return float(getattr(world.device.supply, "energy_drawn_j", 0.0))


class TemperatureBounds(Invariant):
    """Every reported temperature within [coldest boundary seen, junction max]."""

    name = "temperature-bounds"

    def __init__(
        self, junction_max_c: float = JUNCTION_MAX_C, margin_c: float = BOUND_MARGIN_C
    ) -> None:
        self.junction_max_c = junction_max_c
        self.margin_c = margin_c
        self._floor_c = math.inf

    def too_cold(self, temp_c, floor_c):
        return temp_c < floor_c - self.margin_c

    def violated(self, temp_c, floor_c):
        return self.too_cold(temp_c, floor_c) | (temp_c > self.junction_max_c)

    def message(self, label: str, temp_c: float, floor_c: float) -> str:
        if self.too_cold(temp_c, floor_c):
            return (
                f"{label} temperature {temp_c:.2f} °C fell below the "
                f"coldest boundary seen ({floor_c:.2f} °C)"
            )
        return (
            f"{label} temperature {temp_c:.2f} °C exceeds the "
            f"junction ceiling ({self.junction_max_c:.1f} °C)"
        )

    def on_attach(self, world: World) -> None:
        self._floor_c = min(world.device.thermal.temperatures().values())

    def on_step(
        self, world: World, report: StepReport, ambient_c: float, dt: float
    ) -> None:
        self._floor_c = floor = min(self._floor_c, ambient_c)
        for label, temp in (("cpu", report.cpu_temp_c), ("case", report.case_temp_c)):
            if self.violated(temp, floor):
                self.violate(world, self.message(label, temp, floor))


class MonotoneCooldown(Invariant):
    """A sleeping die strictly above ambient must cool, never heat."""

    name = "monotone-cooldown"

    #: Per-step heating allowance, °C.  A device settled to a *uniform*
    #: temperature genuinely warms its die a few ten-thousandths of a
    #: degree while the gradient toward ambient establishes; anything at
    #: sensor resolution or above is a real violation.
    DEFAULT_SLACK_C = 0.01

    def __init__(
        self, margin_c: float = COOLDOWN_MARGIN_C, slack_c: float = DEFAULT_SLACK_C
    ) -> None:
        self.margin_c = margin_c
        self.slack_c = slack_c
        self._previous: Optional[StepReport] = None

    def heated(self, previous_c, current_c, ambient_c):
        return (previous_c > ambient_c + self.margin_c) & (
            current_c > previous_c + self.slack_c
        )

    @staticmethod
    def message(previous_c: float, current_c: float, ambient_c: float) -> str:
        return (
            f"sleeping die heated from {previous_c:.4f} to {current_c:.4f} °C "
            f"while {previous_c - ambient_c:.2f} °C above ambient"
        )

    def on_step(
        self, world: World, report: StepReport, ambient_c: float, dt: float
    ) -> None:
        previous, self._previous = self._previous, report
        if previous is None or not (previous.asleep and report.asleep):
            return
        args = (previous.cpu_temp_c, report.cpu_temp_c, ambient_c)
        if self.heated(*args):
            self.violate(world, self.message(*args))


class ThrottleConsistency(Invariant):
    """Mitigation steps must track the die temperature they claim to."""

    name = "throttle-consistency"

    def __init__(self, margin_c: float = THROTTLE_MARGIN_C) -> None:
        self.margin_c = margin_c
        self._previous_steps = 0
        self._spec: Optional[ThrottleSpec] = None

    def violated(self, steps, previous, cpu_c, spec: ThrottleSpec):
        """Deepened well below the throttle point, or relaxed still hot."""
        return (
            (steps > previous) & (cpu_c < spec.throttle_temp_c - self.margin_c)
        ) | ((steps < previous) & (cpu_c > spec.clear_temp_c + self.margin_c))

    @staticmethod
    def message(steps, previous, cpu_c: float, spec: ThrottleSpec) -> str:
        if steps > previous:
            return (
                f"throttle deepened to {int(steps)} step(s) with the die at "
                f"{cpu_c:.2f} °C, well below the "
                f"{spec.throttle_temp_c:.1f} °C threshold"
            )
        return (
            f"throttle relaxed to {int(steps)} step(s) with the die still at "
            f"{cpu_c:.2f} °C, above the {spec.clear_temp_c:.1f} °C clear temperature"
        )

    def on_attach(self, world: World) -> None:
        self._previous_steps = world.device.soc.mitigation.ceiling_steps
        self._spec = world.device.spec.throttle

    def on_step(
        self, world: World, report: StepReport, ambient_c: float, dt: float
    ) -> None:
        steps = world.device.soc.mitigation.ceiling_steps
        previous, self._previous_steps = self._previous_steps, steps
        if steps == previous:
            return
        args = (steps, previous, report.cpu_temp_c, self._spec)
        if self.violated(*args):
            self.violate(world, self.message(*args))


class TraceTimeMonotone(Invariant):
    """Trace timestamps must strictly increase, fast-forwards included."""

    name = "trace-time-monotone"

    def __init__(self) -> None:
        self._seen = 0
        self._last_time_s = -math.inf

    @staticmethod
    def stale(sample_s, last_s):
        return sample_s <= last_s

    @staticmethod
    def message(sample_s: float, last_s: float) -> str:
        return (
            f"trace sample at t={sample_s:.4f} s does not advance "
            f"past the previous sample at t={last_s:.4f} s"
        )

    def on_attach(self, world: World) -> None:
        self._seen = len(world.trace)
        if self._seen:
            self._last_time_s = float(world.trace.times()[-1])

    def on_step(
        self, world: World, report: StepReport, ambient_c: float, dt: float
    ) -> None:
        trace = world.trace
        if len(trace) == self._seen:
            return
        fresh = trace.times()[self._seen:]
        self._seen = len(trace)
        for sample_time in fresh:
            sample_time = float(sample_time)
            if self.stale(sample_time, self._last_time_s):
                self.violate(world, self.message(sample_time, self._last_time_s))
            self._last_time_s = sample_time


def default_invariants() -> Tuple[Invariant, ...]:
    """A fresh instance of every standard invariant."""
    return (
        EnergyConservation(),
        TemperatureBounds(),
        MonotoneCooldown(),
        ThrottleConsistency(),
        TraceTimeMonotone(),
    )


class InvariantSuite(StepObserver):
    """A bundle of invariants driven as one serial engine observer.

    Attach to a world directly, or let the protocol do it via
    ``AccubenchConfig(check_invariants=True)``.  ``steps_checked`` counts
    observed advances, so harness reports can prove the checks actually
    ran (a suite that observed zero steps is a configuration bug).
    """

    def __init__(self, invariants: Optional[Sequence[Invariant]] = None) -> None:
        self.invariants: Tuple[Invariant, ...] = (
            tuple(invariants) if invariants is not None else default_invariants()
        )
        self.steps_checked = 0

    def on_attach(self, world: World) -> None:
        for invariant in self.invariants:
            invariant.on_attach(world)

    def on_step(
        self, world: World, report: StepReport, ambient_c: float, dt: float
    ) -> None:
        self.steps_checked += 1
        for invariant in self.invariants:
            invariant.on_step(world, report, ambient_c, dt)


class BatchedInvariantSuite:
    """The standard invariants driven over one batched cohort.

    :class:`~repro.sim.batch.BatchedWorld` calls :meth:`observe_awake`
    after every lock-step tick, :meth:`observe_asleep` after every
    sleeping macro window and :meth:`observe_trace` whenever trace samples
    land.  The per-unit state lives here as arrays, judged by the same
    predicates and message builders :class:`InvariantSuite` drives; a
    violation raises the same diagnostic for the first offending unit in
    fleet order, naming the unit by its entry in ``labels`` (its serial,
    plus its workload when the campaign runner built the cohort).

    Asleep macro windows integrate supply power over the whole window
    (exactly what the serial meter accumulates) and enforce monotone
    cooldown window-to-window; the case-temperature bound is only
    evaluated while awake, since the sleeping hook reports the die.
    """

    def __init__(
        self,
        labels: Sequence[str],
        node_temps_c: np.ndarray,
        meter_j: np.ndarray,
        throttle_steps: np.ndarray,
        throttle: ThrottleSpec,
    ) -> None:
        count = len(labels)
        self.labels = list(labels)
        self.energy, self.bounds, self.cooldown, self.throttle, self.trace_time = (
            default_invariants()
        )
        self._throttle_spec = throttle
        self._everyone = np.ones(count, dtype=bool)
        self._integral_j = np.zeros(count)
        self._baseline_j = np.array(meter_j, dtype=float)
        self._floor_c = np.asarray(node_temps_c, dtype=float).min(axis=1)
        self._prev_cpu_c = np.full(count, np.nan)
        self._prev_asleep = np.zeros(count, dtype=bool)
        self._prev_steps = np.array(throttle_steps)
        self._last_trace_s = np.full(count, -math.inf)

    def observe_awake(
        self, now_s: np.ndarray, phase: Optional[str], cpu_c: np.ndarray,
        case_c: np.ndarray, ambient_c: np.ndarray, supply_w: np.ndarray,
        meter_j: np.ndarray, throttle_steps: np.ndarray, dt: float,
    ) -> None:
        """Check one lock-step awake tick across the whole cohort."""
        everyone = self._everyone
        self._observe(everyone, now_s, phase, cpu_c, ambient_c, supply_w * dt, meter_j)
        self._check_bounds("case", case_c, everyone, now_s, phase)
        throttle, spec, previous = self.throttle, self._throttle_spec, self._prev_steps
        self._check(
            throttle, throttle.violated(throttle_steps, previous, cpu_c, spec),
            lambda i: throttle.message(throttle_steps[i], previous[i], cpu_c[i], spec),
            now_s, phase,
        )
        self._prev_steps = np.array(throttle_steps)
        self._prev_cpu_c = np.array(cpu_c, dtype=float)
        self._prev_asleep[:] = False

    def observe_asleep(
        self, active: np.ndarray, now_s: np.ndarray, phase: Optional[str],
        cpu_c: np.ndarray, ambient_c: np.ndarray, supply_w: float,
        meter_j: np.ndarray, duration_s: float,
    ) -> None:
        """Check one sleeping macro window for the ``active`` units."""
        energy_j = supply_w * duration_s
        self._observe(active, now_s, phase, cpu_c, ambient_c, energy_j, meter_j)
        cooldown, previous = self.cooldown, self._prev_cpu_c
        self._check(
            cooldown,
            active & self._prev_asleep & cooldown.heated(previous, cpu_c, ambient_c),
            lambda i: cooldown.message(previous[i], cpu_c[i], ambient_c[i]),
            now_s, phase,
        )
        self._prev_cpu_c[active] = cpu_c[active]
        self._prev_asleep[active] = True

    def observe_trace(self, units: np.ndarray, times_s: np.ndarray) -> None:
        """Check that fresh trace samples advance each unit's timeline."""
        last = self._last_trace_s[units]
        stale = self.trace_time.stale(times_s, last)
        if stale.any():
            j = int(np.flatnonzero(stale)[0])
            raise violation(
                self.trace_time.name, self.trace_time.message(times_s[j], last[j]),
                float(times_s[j]), None, self.labels[int(units[j])],
            )
        self._last_trace_s[units] = times_s

    def _observe(
        self, active: np.ndarray, now_s: np.ndarray, phase: Optional[str],
        cpu_c: np.ndarray, ambient_c: np.ndarray, energy_j, meter_j: np.ndarray,
    ) -> None:
        """The energy identity and die bounds, checked awake and asleep."""
        energy, integral = self.energy, self._integral_j
        integral += np.where(active, energy_j, 0.0)
        metered = meter_j - self._baseline_j
        self._check(
            energy, active & energy.drifted(metered, integral),
            lambda i: energy.message(metered[i], integral[i]), now_s, phase,
        )
        floor = self._floor_c
        floor[active] = np.minimum(floor[active], ambient_c[active])
        self._check_bounds("cpu", cpu_c, active, now_s, phase)

    def _check_bounds(
        self, label: str, temps_c: np.ndarray, active: np.ndarray,
        now_s: np.ndarray, phase: Optional[str],
    ) -> None:
        bounds, floor = self.bounds, self._floor_c
        self._check(
            bounds, active & bounds.violated(temps_c, floor),
            lambda i: bounds.message(label, temps_c[i], floor[i]), now_s, phase,
        )

    def _check(
        self, invariant: Invariant, bad: np.ndarray, message: Callable[[int], str],
        now_s: np.ndarray, phase: Optional[str],
    ) -> None:
        """Raise for the first unit, in fleet order, that ``bad`` flags."""
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise violation(
                invariant.name, message(i), float(now_s[i]), phase, self.labels[i]
            )
