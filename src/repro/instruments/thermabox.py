"""THERMABOX: the paper's controlled thermal environment (Figure 3).

A RaspberryPi polls a thermistor probe and power-cycles a compressor (cool)
and a 250 W halogen lamp (heat) to hold the chamber air at the target
temperature within ±0.5 °C.  The chamber is modelled as a single air/wall
thermal mass leaking to the room, with the device under test's waste heat
injected as an extra load.

Actuation realism that matters for regulation quality: the controller is a
bang-bang loop with a deadband *inside* the reported tolerance, and the
compressor has a minimum off-time (short-cycling a refrigeration compressor
destroys it, so every real build rate-limits it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, InstrumentError
from repro.instruments.probe import ThermistorProbe
from repro.units import PAPER_AMBIENT_C, PAPER_AMBIENT_TOLERANCE_C


@dataclass(frozen=True)
class ThermaboxConfig:
    """THERMABOX build parameters.

    Attributes
    ----------
    target_c:
        Setpoint, °C (the paper runs everything at 26 °C).
    tolerance_c:
        Guaranteed regulation band half-width, °C.
    heater_w:
        Halogen-lamp heat input when on, watts.
    cooler_w:
        Heat removed by the compressor when on, watts (positive number).
    air_heat_capacity:
        Chamber air + inner-wall thermal mass, J/K.
    wall_resistance:
        Chamber-to-room thermal resistance, K/W.
    controller_period_s:
        RaspberryPi control-loop period, seconds.
    deadband_c:
        Bang-bang deadband half-width (must be inside ``tolerance_c``).
    compressor_min_off_s:
        Minimum compressor off-time between runs, seconds.
    """

    target_c: float = PAPER_AMBIENT_C
    tolerance_c: float = PAPER_AMBIENT_TOLERANCE_C
    heater_w: float = 250.0
    cooler_w: float = 220.0
    air_heat_capacity: float = 6000.0
    wall_resistance: float = 0.22
    controller_period_s: float = 1.0
    deadband_c: float = 0.2
    compressor_min_off_s: float = 20.0

    def __post_init__(self) -> None:
        if self.tolerance_c <= 0:
            raise ConfigurationError("tolerance_c must be positive")
        if self.deadband_c <= 0 or self.deadband_c >= self.tolerance_c:
            raise ConfigurationError("deadband_c must be within (0, tolerance_c)")
        if self.heater_w <= 0 or self.cooler_w <= 0:
            raise ConfigurationError("actuator powers must be positive")
        if self.air_heat_capacity <= 0 or self.wall_resistance <= 0:
            raise ConfigurationError("chamber plant constants must be positive")
        if self.controller_period_s <= 0:
            raise ConfigurationError("controller_period_s must be positive")
        if self.compressor_min_off_s < 0:
            raise ConfigurationError("compressor_min_off_s must be non-negative")


class Thermabox:
    """The chamber plant plus its bang-bang controller."""

    def __init__(
        self,
        config: ThermaboxConfig = ThermaboxConfig(),
        initial_temp_c: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config
        self._air_c = config.target_c if initial_temp_c is None else initial_temp_c
        self._probe = ThermistorProbe(
            noise_sigma_c=0.05 if rng is not None else 0.0,
            initial_temp_c=self._air_c,
            rng=rng,
        )
        self._heater_on = False
        self._cooler_on = False
        self._time_s = 0.0
        self._next_control_s = 0.0
        self._cooler_off_since_s = -config.compressor_min_off_s
        self._heater_seconds = 0.0
        self._cooler_seconds = 0.0

    @property
    def air_temp_c(self) -> float:
        """True chamber air temperature, °C."""
        return self._air_c

    @property
    def cooler_on(self) -> bool:
        """Whether the compressor is currently powered."""
        return self._cooler_on

    @property
    def heater_duty_seconds(self) -> float:
        """Total heater on-time so far, seconds."""
        return self._heater_seconds

    @property
    def cooler_duty_seconds(self) -> float:
        """Total compressor on-time so far, seconds."""
        return self._cooler_seconds

    @property
    def elapsed_s(self) -> float:
        """Total chamber time simulated so far, seconds — the denominator
        for actuator duty cycles."""
        return self._time_s

    def is_within_band(self) -> bool:
        """True if the true air temperature is inside target ± tolerance."""
        return abs(self._air_c - self.config.target_c) <= self.config.tolerance_c

    def wait_until_stable(
        self, room_temp_c: float, dt: float = 1.0, timeout_s: float = 3600.0
    ) -> float:
        """Run the chamber until it holds the band for 60 s; returns the time
        spent settling.  The benchmarking app performs exactly this check
        before starting iterations (Section III).
        """
        settled_for = 0.0
        waited = 0.0
        while settled_for < 60.0:
            if waited >= timeout_s:
                raise InstrumentError(
                    f"THERMABOX failed to stabilize within {timeout_s} s"
                )
            self.step(room_temp_c, dt)
            waited += dt
            settled_for = settled_for + dt if self.is_within_band() else 0.0
        return waited

    def run_for(
        self, room_temp_c: float, duration_s: float, load_w: float = 0.0
    ) -> None:
        """Advance the chamber by ``duration_s`` in controller-period chunks.

        The macro-step companion to :meth:`step`: the engine's sleep
        fast-forward covers a whole poll window at once, but the RaspberryPi
        still wakes every ``controller_period_s`` — so the window is split
        into even chunks no longer than one controller period, preserving
        the control cadence (and the probe's per-decision noise draws)
        exactly.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        period = self.config.controller_period_s
        chunks = max(1, math.ceil(duration_s / period - 1e-9))
        h = duration_s / chunks
        for _ in range(chunks):
            self.step(room_temp_c, h, load_w=load_w)

    def step(self, room_temp_c: float, dt: float, load_w: float = 0.0) -> None:
        """Advance the chamber by ``dt`` seconds.

        ``load_w`` is heat dumped into the chamber by the device under test.
        """
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        self._probe.advance(self._air_c, dt)
        self._time_s += dt
        while self._time_s >= self._next_control_s:
            self._next_control_s += self.config.controller_period_s
            self._control()
        power = load_w
        if self._heater_on:
            power += self.config.heater_w
            self._heater_seconds += dt
        if self._cooler_on:
            power -= self.config.cooler_w
            self._cooler_seconds += dt
        leak = (self._air_c - room_temp_c) / self.config.wall_resistance
        self._air_c += dt * (power - leak) / self.config.air_heat_capacity

    def _control(self) -> None:
        """One RaspberryPi control decision from the probe reading."""
        reading = self._probe.read()
        low = self.config.target_c - self.config.deadband_c
        high = self.config.target_c + self.config.deadband_c
        if reading < low:
            self._heater_on = True
            if self._cooler_on:
                self._cooler_on = False
                self._cooler_off_since_s = self._time_s
        elif reading > high:
            self._heater_on = False
            can_start = (
                self._time_s - self._cooler_off_since_s
                >= self.config.compressor_min_off_s
            )
            if not self._cooler_on and can_start:
                self._cooler_on = True
        else:
            self._heater_on = False
            if self._cooler_on:
                self._cooler_on = False
                self._cooler_off_since_s = self._time_s


class BatchedThermabox:
    """A column of independent THERMABOXes advanced with array arithmetic.

    The batched fleet engine gives every unit its own chamber (exactly as
    the serial runner builds one :class:`Thermabox` per device), but holds
    all of their state in ``(units,)`` arrays so one engine step costs a
    handful of vector operations instead of ``units`` Python calls.  Units
    whose simulation is frozen (e.g. already past their cooldown target
    while others still cool) are excluded via the boolean ``mask`` — a
    masked-out chamber does not advance at all, matching a serial world
    that simply is not being stepped.

    Deterministic only: the serial runner builds chambers with ``rng=None``
    (noiseless probe), and that is the only configuration the batch path
    accepts — per-unit probe noise would reintroduce per-unit draw loops.
    Step-for-step, each column reproduces a serial :class:`Thermabox`
    bit-exactly (same float operation order per unit).
    """

    def __init__(
        self,
        config: ThermaboxConfig = ThermaboxConfig(),
        count: int = 1,
        initial_temp_c: Optional[float] = None,
    ) -> None:
        if count < 1:
            raise ConfigurationError("count must be at least 1")
        self.config = config
        base = config.target_c if initial_temp_c is None else initial_temp_c
        probe = ThermistorProbe(noise_sigma_c=0.0, initial_temp_c=base)
        self._probe_tau = probe._tau
        self._probe_quantum = probe._quantum
        self._count = count
        self._air = np.full(count, float(base))
        self._element = np.full(count, float(base))
        self._time = np.zeros(count)
        self._next_control = np.zeros(count)
        self._heater = np.zeros(count, dtype=bool)
        self._cooler = np.zeros(count, dtype=bool)
        self._off_since = np.full(count, -config.compressor_min_off_s)
        self._heater_seconds = np.zeros(count)
        self._cooler_seconds = np.zeros(count)
        # Scalar fast-path state: an upper bound on every column's clock,
        # a lower bound on the next control deadline, and whether any
        # column's heater/cooler is currently on.  They only gate *skips*
        # (a step that provably cannot fire a control decision or accrue
        # duty), so a loose bound falls through to the exact vector path.
        self._time_max = 0.0
        self._next_control_min = 0.0
        self._any_heater = False
        self._any_cooler = False

    @property
    def count(self) -> int:
        """Number of chamber columns."""
        return self._count

    @property
    def air_temps_c(self) -> np.ndarray:
        """True per-unit chamber air temperatures, °C (read-only view)."""
        view = self._air.view()
        view.setflags(write=False)
        return view

    @property
    def heater_duty_seconds(self) -> np.ndarray:
        """Per-unit heater on-time so far, seconds."""
        return self._heater_seconds.copy()

    @property
    def cooler_duty_seconds(self) -> np.ndarray:
        """Per-unit compressor on-time so far, seconds."""
        return self._cooler_seconds.copy()

    @property
    def elapsed_s(self) -> np.ndarray:
        """Per-unit chamber time simulated so far, seconds."""
        return self._time.copy()

    def step_masked(
        self,
        mask: Optional[np.ndarray],
        room_temp_c: float,
        dt: float,
        load_w: np.ndarray,
    ) -> None:
        """Advance the masked chamber columns by ``dt`` seconds.

        ``load_w`` is each unit's device waste heat; entries outside the
        mask are ignored.  ``mask=None`` means every column: the
        all-units hot path performs the same per-element arithmetic
        without boolean gather/scatter, so it is bit-exact with passing
        a full mask.
        """
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        alpha = 1.0 - math.exp(-dt / self._probe_tau)
        if mask is None:
            self._element += alpha * (self._air - self._element)
            self._time += dt
            self._time_max += dt
            if self._time_max >= self._next_control_min:
                due = self._time >= self._next_control
                while due.any():
                    self._next_control[due] += self.config.controller_period_s
                    self._control(due)
                    due = self._time >= self._next_control
                self._next_control_min = float(self._next_control.min())
        else:
            self._element[mask] += alpha * (self._air[mask] - self._element[mask])
            self._time[mask] += dt
            self._time_max += dt
            if self._time_max >= self._next_control_min:
                due = mask & (self._time >= self._next_control)
                while due.any():
                    self._next_control[due] += self.config.controller_period_s
                    self._control(due)
                    due = mask & (self._time >= self._next_control)
                # Masked columns may still sit before their deadline, so
                # the lower bound over all columns remains valid.
                self._next_control_min = float(self._next_control.min())
        if self._any_heater or self._any_cooler:
            heating = self._heater if mask is None else (mask & self._heater)
            cooling = self._cooler if mask is None else (mask & self._cooler)
            self._heater_seconds[heating] += dt
            self._cooler_seconds[cooling] += dt
            power = (
                np.asarray(load_w, dtype=float)
                + heating * self.config.heater_w
                - cooling * self.config.cooler_w
            )
        else:
            # All elements off: the duty adds and the heater/cooler power
            # terms are exact zeros, so dropping them changes nothing.
            power = np.asarray(load_w, dtype=float)
        leak = (self._air - room_temp_c) / self.config.wall_resistance
        delta = dt * (power - leak) / self.config.air_heat_capacity
        if mask is None:
            self._air += delta
        else:
            self._air[mask] += delta[mask]

    def run_for_masked(
        self,
        mask: Optional[np.ndarray],
        room_temp_c: float,
        duration_s: float,
        load_w: np.ndarray,
    ) -> None:
        """Advance masked columns (``None`` for all) by ``duration_s`` in
        controller-period chunks — the batched mirror of
        :meth:`Thermabox.run_for`."""
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        period = self.config.controller_period_s
        chunks = max(1, math.ceil(duration_s / period - 1e-9))
        h = duration_s / chunks
        for _ in range(chunks):
            self.step_masked(mask, room_temp_c, h, load_w)

    def wait_until_stable(
        self, room_temp_c: float, dt: float = 1.0, timeout_s: float = 3600.0
    ) -> np.ndarray:
        """Run every column until it holds the band for 60 s; returns the
        per-unit settling times.  Each column advances only until *its own*
        settle completes, exactly like serial chambers settled one by one."""
        pending = np.ones(self._count, dtype=bool)
        settled = np.zeros(self._count)
        waited = np.zeros(self._count)
        no_load = np.zeros(self._count)
        while pending.any():
            if (waited[pending] >= timeout_s).any():
                raise InstrumentError(
                    f"THERMABOX failed to stabilize within {timeout_s} s"
                )
            self.step_masked(pending, room_temp_c, dt, no_load)
            waited[pending] += dt
            in_band = (
                np.abs(self._air - self.config.target_c) <= self.config.tolerance_c
            )
            settled[pending] = np.where(
                in_band[pending], settled[pending] + dt, 0.0
            )
            pending &= settled < 60.0
        return waited

    def _control(self, due: np.ndarray) -> None:
        """One control decision for every due column (vector bang-bang)."""
        reading = self._element
        if self._probe_quantum > 0:
            reading = (
                np.rint(self._element / self._probe_quantum) * self._probe_quantum
            )
        low = self.config.target_c - self.config.deadband_c
        high = self.config.target_c + self.config.deadband_c
        heat = due & (reading < low)
        chill = due & (reading > high)
        band = due & ~heat & ~chill

        self._heater[heat] = True
        stop_cool = heat & self._cooler
        self._cooler[stop_cool] = False
        self._off_since[stop_cool] = self._time[stop_cool]

        self._heater[chill] = False
        can_start = chill & ~self._cooler & (
            self._time - self._off_since >= self.config.compressor_min_off_s
        )
        self._cooler[can_start] = True

        self._heater[band] = False
        stop_band = band & self._cooler
        self._cooler[stop_band] = False
        self._off_since[stop_band] = self._time[stop_band]

        self._any_heater = bool(self._heater.any())
        self._any_cooler = bool(self._cooler.any())
