"""The world stepper: device + chamber + room, on one clock.

:class:`World` advances everything coherently each step:

1. the room's ambient profile sets the outside temperature;
2. the THERMABOX (if present) regulates its air against the room, absorbing
   the device's waste heat;
3. the device sees the chamber air (or the bare room) as its ambient and
   steps its SoC/thermal/OS state;
4. the trace records the channels the paper's figures plot.

The ACCUBENCH protocol's phase driver (:func:`repro.core.protocol.run_phases`)
expresses phases with :meth:`run_for` and :meth:`run_cooldown` (a
:meth:`run_until` on the sensor), and annotates the trace with
:meth:`set_phase`; it drives a batched world through the same verbs.

``run_for`` is the simulator's hot loop — a full campaign is millions of
steps — so it inlines :meth:`step`'s body with every invariant attribute
lookup hoisted to a local.  The two must stay behaviourally identical;
``tests/sim/test_engine.py`` asserts the equivalence.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.device.phone import Device, StepReport
from repro.errors import SimulationError
from repro.instruments.thermabox import Thermabox
from repro.obs.metrics import default_registry
from repro.sim.clock import SimClock
from repro.sim.events import EventLog
from repro.sim.trace import Trace
from repro.thermal.ambient import AmbientProfile, ConstantAmbient
from repro.units import PAPER_AMBIENT_C

#: Channels every world trace records.
TRACE_CHANNELS = (
    "cpu_temp",
    "case_temp",
    "ambient",
    "power",
    "soc_power",
    "freq",
    "online_cores",
    "throttle_steps",
    "asleep",
)


class StepObserver:
    """Interface for :meth:`World.attach_observer` observers.

    Subclassing is optional — any object with a matching ``on_step`` (and
    optionally ``on_attach``) works.  ``repro.check.invariants`` provides
    the canonical implementation.
    """

    def on_attach(self, world: "World") -> None:
        """Called once when attached, before any step is observed."""

    def on_step(
        self, world: "World", report: StepReport, ambient_c: float, dt: float
    ) -> None:
        """Called after every world advance (``dt`` spans macro windows)."""


class World:
    """One experiment's physical world."""

    def __init__(
        self,
        device: Device,
        room: Optional[AmbientProfile] = None,
        chamber: Optional[Thermabox] = None,
        dt: float = 0.1,
        trace_decimation: int = 5,
        sleep_fast_forward: bool = True,
    ) -> None:
        if trace_decimation < 1:
            raise SimulationError("trace_decimation must be at least 1")
        self.device = device
        self.room: AmbientProfile = room if room is not None else ConstantAmbient(
            PAPER_AMBIENT_C
        )
        self.chamber = chamber
        self.clock = SimClock(dt)
        self.trace = Trace(TRACE_CHANNELS)
        self.events = EventLog()
        self._decimation = trace_decimation
        self._sleep_fast_forward = sleep_fast_forward
        #: Poll windows advanced as single exact propagations so far.
        self.fast_forwards = 0
        #: Clock steps covered by those macro propagations (the clock's
        #: total includes them; subtracting yields steps actually looped).
        self.fast_forward_steps = 0
        #: Total work retired since world creation, ops.
        self.ops_total = 0.0
        self._last_report: Optional[StepReport] = None
        self._last_mitigation_steps = 0
        self._last_online = device.soc.online_cores()
        self._phase_name: Optional[str] = None
        #: Optional step observer (see :meth:`attach_observer`).  ``None``
        #: keeps ``run_for`` on its unobserved hot loop.
        self._observer: Optional["StepObserver"] = None
        # The big cluster's frequency is the figure-relevant one.  Resolve
        # its identity once — the first cluster in spec order, matching the
        # hard-limit hotplug convention in Soc.step — instead of trusting
        # dict iteration order on every sample.
        self._big_cluster_name = device.soc.clusters[0].spec.name

    @property
    def now(self) -> float:
        """Current world time, seconds."""
        return self.clock.now

    @property
    def ambient_c(self) -> float:
        """The ambient the device currently sees, °C."""
        if self.chamber is not None:
            return self.chamber.air_temp_c
        return self.room.temperature(self.now)

    def ambient_now(self) -> float:
        """:attr:`ambient_c`, under the batched world's name."""
        return self.ambient_c

    @property
    def energy_drawn_j(self) -> float:
        """The device supply's cumulative metered energy, joules."""
        return self.device.supply.energy_drawn_j

    def engine_tallies(self) -> tuple:
        """Looped steps, macro steps and windows, sim time, event counter
        and unit count: the protocol's ``publish_engine_tallies`` inputs."""
        return (
            self.clock.steps - self.fast_forward_steps, self.fast_forward_steps,
            self.fast_forwards, self.now, self.events.count, 1,
        )

    @property
    def last_report(self) -> Optional[StepReport]:
        """The most recent device step report."""
        return self._last_report

    @property
    def phase(self) -> Optional[str]:
        """The protocol phase currently annotating the trace, if any."""
        return self._phase_name

    @property
    def observer(self) -> Optional["StepObserver"]:
        """The attached step observer, if any."""
        return self._observer

    def attach_observer(self, observer: "StepObserver") -> None:
        """Attach a step observer (e.g. a ``repro.check`` invariant suite).

        The observer's ``on_step(world, report, ambient_c, dt)`` is called
        after every advance — including fast-forwarded macro windows, where
        ``dt`` spans the whole window.  With an observer attached,
        ``run_for`` routes through :meth:`step` instead of its inlined hot
        loop; with none attached the hot loop is untouched, so the checks
        are zero-cost when disabled.
        """
        if self._observer is not None:
            raise SimulationError(
                "world already has an observer; detach it first"
            )
        on_attach = getattr(observer, "on_attach", None)
        if on_attach is not None:
            on_attach(self)
        self._observer = observer

    def detach_observer(self) -> Optional["StepObserver"]:
        """Remove and return the attached observer (``None`` if absent)."""
        observer = self._observer
        self._observer = None
        return observer

    def set_phase(self, name: Optional[str]) -> None:
        """Annotate the trace with a protocol phase from now on."""
        if self._phase_name is not None:
            self.trace.end_phase(self.now)
        self._phase_name = name
        if name is not None:
            self.trace.begin_phase(name, self.now)
            self.events.log(self.now, "phase", name=name)

    def close(self) -> None:
        """End any open phase annotation (end of experiment)."""
        self.set_phase(None)

    def step(self) -> StepReport:
        """Advance the world one clock step."""
        try:
            return self._step()
        finally:
            self.device.os.hand_back()

    def _step(self) -> StepReport:
        dt = self.clock.dt
        room_temp = self.room.temperature(self.now)
        if self.chamber is not None:
            waste_heat = (
                self._last_report.supply_power_w if self._last_report else 0.0
            )
            self.chamber.step(room_temp, dt, load_w=waste_heat)
            ambient = self.chamber.air_temp_c
        else:
            ambient = room_temp
        report = self.device.step(ambient, dt)
        self.ops_total += report.ops
        self._record_events(report)
        self._last_report = report
        if self.clock.steps % self._decimation == 0:
            self._record_trace(report, ambient)
        self.clock.tick()
        if self._observer is not None:
            self._observer.on_step(self, report, ambient, dt)
        return report

    def run_for(self, duration_s: float) -> None:
        """Advance the world for a fixed duration."""
        if duration_s <= 0:
            raise SimulationError("duration_s must be positive")
        clock = self.clock
        dt = clock.dt
        steps = round(duration_s / dt)
        if steps < 1:
            raise SimulationError("duration shorter than one clock step")
        try:
            self._run_steps(steps)
        finally:
            # The OS noise stream is read a block ahead; leave it where
            # the draws taken end (see OsBehavior.hand_back).
            self.device.os.hand_back()

    def _run_steps(self, steps: int) -> None:
        if self._observer is not None:
            # Observed runs take the plain step() path: every step notifies
            # the observer, and the unobserved hot loop below stays free of
            # per-step checks.
            for _ in range(steps):
                self._step()
            return
        clock = self.clock
        dt = clock.dt
        # Inlined step() body with invariant lookups hoisted out of the loop.
        chamber = self.chamber
        room_temperature = self.room.temperature
        device_step = self.device.step
        record_events = self._record_events
        record_trace = self._record_trace
        tick = clock.tick
        decimation = self._decimation
        step_count = clock.steps
        now = clock.now
        report = self._last_report
        for _ in range(steps):
            room_temp = room_temperature(now)
            if chamber is not None:
                chamber.step(
                    room_temp, dt, load_w=report.supply_power_w if report else 0.0
                )
                ambient = chamber.air_temp_c
            else:
                ambient = room_temp
            report = device_step(ambient, dt)
            self.ops_total += report.ops
            record_events(report)
            self._last_report = report
            if step_count % decimation == 0:
                record_trace(report, ambient)
            step_count += 1
            now = tick()

    def run_until(
        self,
        predicate: Callable[["World"], bool],
        check_every_s: float,
        timeout_s: float,
    ) -> float:
        """Advance until ``predicate(world)`` holds, checking periodically.

        Returns the elapsed time.  Raises :class:`SimulationError` on
        timeout — a stuck cooldown is an experiment failure, not a hang.

        While the device sleeps (cooldown, soak) and its thermal network
        uses the exact ``expm`` solver, each ``check_every_s`` window is
        advanced as a *single* zero-order-hold propagation instead of
        thousands of engine steps — the sleeping device's power draw is
        constant, so the macro step is exact.  Trace samples and event
        checks land at the poll boundaries, where the protocol observes
        the world anyway.
        """
        if check_every_s < self.clock.dt:
            raise SimulationError("check_every_s must be at least one clock step")
        device = self.device
        fast_forward_ok = self._sleep_fast_forward and device.thermal.is_exact
        started = self.now
        with default_registry().span(
            "engine.run_until", clock=lambda: self.now, phase=self._phase_name
        ):
            while True:
                if predicate(self):
                    return self.now - started
                if self.now - started >= timeout_s:
                    raise SimulationError(
                        f"run_until timed out after {timeout_s} s"
                    )
                if fast_forward_ok and device.is_asleep:
                    self._fast_forward(check_every_s)
                else:
                    self.run_for(check_every_s)

    def run_cooldown(self, target_c: float, poll_s: float, timeout_s: float) -> float:
        """:meth:`run_until` the sensor reads ``target_c`` or below, polling
        every ``poll_s``; returns the elapsed time."""
        return self.run_until(
            lambda w: w.device.read_cpu_temp() <= target_c,
            check_every_s=poll_s, timeout_s=timeout_s,
        )

    def _fast_forward(self, window_s: float) -> None:
        """Advance one sleeping poll window as a single exact macro step."""
        clock = self.clock
        steps = round(window_s / clock.dt)
        duration = steps * clock.dt
        room_temp = self.room.temperature(clock.now)
        if self.chamber is not None:
            waste_heat = (
                self._last_report.supply_power_w if self._last_report else 0.0
            )
            self.chamber.run_for(room_temp, duration, load_w=waste_heat)
            ambient = self.chamber.air_temp_c
        else:
            ambient = room_temp
        # A sleeping device's step is linear in dt (constant supply draw,
        # linear thermal network), so one device step covers the window.
        report = self.device.step(ambient, duration)
        self.ops_total += report.ops
        self._record_events(report)
        self._last_report = report
        clock.advance(steps)
        self._record_trace(report, ambient)
        self.fast_forwards += 1
        self.fast_forward_steps += steps
        if self._observer is not None:
            self._observer.on_step(self, report, ambient, duration)

    # -- internals --------------------------------------------------------

    def _record_trace(self, report: StepReport, ambient: float) -> None:
        # Positional fast append; order must match TRACE_CHANNELS.
        self.trace.append(
            self.now,
            (
                report.cpu_temp_c,
                report.case_temp_c,
                ambient,
                report.supply_power_w,
                report.soc_power_w,
                report.frequencies_mhz[self._big_cluster_name],
                report.online_cores,
                self.device.soc.mitigation.ceiling_steps,
                1.0 if report.asleep else 0.0,
            ),
        )

    def _record_events(self, report: StepReport) -> None:
        steps = self.device.soc.mitigation.ceiling_steps
        if steps != self._last_mitigation_steps:
            kind = "throttle-step" if steps > self._last_mitigation_steps else "throttle-clear"
            self.events.log(self.now, kind, steps=steps)
            self._last_mitigation_steps = steps
        online = report.online_cores
        if online != self._last_online:
            kind = "core-offline" if online < self._last_online else "core-online"
            self.events.log(self.now, kind, online=online)
            self._last_online = online
