"""The batched fleet engine against its serial reference, unit for unit.

The contract (see :mod:`repro.sim.batch`) is draw-for-draw replay: every
random draw, throttle poll and clock tick lands exactly where the serial
``World`` would put it, leaving only BLAS summation order (GEMM vs GEMV)
as a tolerated ulp-level difference on thermal trajectories.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import BATCH_SPEC
from repro.check.differential import default_crowd_differential_config
from repro.core.crowd_stream import run_streaming_crowd_study
from repro.core.protocol import iteration_result
from repro.device.battery import Battery
from repro.device.os_model import InputVoltageThrottle
from repro.device.fleet import synthetic_fleet
from repro.errors import SimulationError
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.thermabox import (
    BatchedThermabox,
    Thermabox,
    ThermaboxConfig,
)
from repro import rng as rng_module
from repro.sim import batch as batch_module
from repro.sim.batch import BatchedWorld
from repro.sim.engine import TRACE_CHANNELS, World
from repro.sim.trace import Trace
from repro.thermal.ambient import ConstantAmbient

AMBIENT = 26.0
ROOM = 23.0
DT = 0.1
DECIM = 5
VOLTS = 3.8
#: GEMM-vs-GEMV summation order budget; observed worst case is ~2e-13 °C.
TRACE_ATOL = 2e-9


def build_fleet(count, model="Nexus 5"):
    devices = synthetic_fleet(
        model, count, thermal_solver="expm", initial_temp_c=AMBIENT
    )
    for device in devices:
        device.connect_supply(MonsoonPowerMonitor(VOLTS))
    return devices


def battery_fleet(
    count, model="Nexus 5", resistance=None, charge=0.8, voltage_throttle=None
):
    """Units on their own battery, optionally with a custom resistance or
    an OS input-voltage throttle."""
    devices = synthetic_fleet(
        model, count, thermal_solver="expm", initial_temp_c=AMBIENT
    )
    spec = devices[0].spec.battery
    if resistance is not None:
        spec = replace(spec, internal_resistance_ohm=resistance)
    for device in devices:
        device.connect_supply(Battery(spec, state_of_charge=charge))
        if voltage_throttle is not None:
            device.os.voltage_throttle = voltage_throttle
    return devices


def run_serial(devices, use_box, warmup_s=12.0):
    """The reference: one World per unit, full three-phase protocol."""
    finished = []
    for device in devices:
        chamber = None
        room = ConstantAmbient(AMBIENT)
        if use_box:
            chamber = Thermabox(
                ThermaboxConfig(target_c=AMBIENT), initial_temp_c=AMBIENT
            )
            chamber.wait_until_stable(ROOM)
            room = ConstantAmbient(ROOM)
        world = World(
            device, room=room, chamber=chamber, dt=DT, trace_decimation=DECIM
        )
        device.unconstrain_frequency()
        device.acquire_wakelock()
        device.start_load()
        world.set_phase("warmup")
        world.run_for(warmup_s)
        device.stop_load()
        device.release_wakelock()
        world.set_phase("cooldown")
        target = max(38.0, world.ambient_c + 6.0)
        cooldown = world.run_until(
            lambda w: device.read_cpu_temp() <= target, 5.0, 2700.0
        )
        device.acquire_wakelock()
        device.start_load()
        world.set_phase("workload")
        world.run_for(15.0)
        world.close()
        finished.append((world, cooldown))
    return finished


def run_batched(devices, use_box, warmup_s=12.0):
    chamber = None
    room = AMBIENT
    if use_box:
        chamber = BatchedThermabox(
            ThermaboxConfig(target_c=AMBIENT),
            count=len(devices),
            initial_temp_c=AMBIENT,
        )
        chamber.wait_until_stable(ROOM)
        room = ROOM
    world = BatchedWorld(
        devices, room_temp_c=room, chamber=chamber, dt=DT, trace_decimation=DECIM
    )
    world.pin_frequencies([None] * world.count)
    world.acquire_wakelock()
    world.start_load()
    world.set_phase("warmup")
    world.run_for(warmup_s)
    world.stop_load()
    world.release_wakelock()
    world.set_phase("cooldown")
    targets = np.maximum(38.0, world.ambient_now() + 6.0)
    cooldown = world.run_cooldown(targets, 5.0, 2700.0)
    world.acquire_wakelock()
    world.start_load()
    world.set_phase("workload")
    world.run_for(15.0)
    world.close()
    world.finalize()
    return world, cooldown


class TestBatchedMatchesSerial:
    @pytest.mark.parametrize("use_box", [False, True])
    def test_full_protocol_agrees_per_unit(self, use_box):
        count = 3
        serial_devices = build_fleet(count)
        batch_devices = build_fleet(count)
        serial = run_serial(serial_devices, use_box)
        batched, cooldown_b = run_batched(batch_devices, use_box)
        for i, (world, cooldown_s) in enumerate(serial):
            trace_s, trace_b = world.trace, batched.traces[i]
            np.testing.assert_array_equal(trace_s.times(), trace_b.times())
            for channel in trace_s.channels:
                np.testing.assert_allclose(
                    trace_s.column(channel),
                    trace_b.column(channel),
                    rtol=0,
                    atol=TRACE_ATOL,
                    err_msg=f"unit {i} channel {channel}",
                )
            assert cooldown_s == pytest.approx(cooldown_b[i], abs=1e-9)
            events_s = [(e.time_s, e.kind, e.detail) for e in world.events]
            events_b = [
                (e.time_s, e.kind, e.detail) for e in batched.event_logs[i]
            ]
            assert events_s == events_b

    def test_finalize_writes_back_device_state(self):
        count = 2
        serial_devices = build_fleet(count)
        batch_devices = build_fleet(count)
        run_serial(serial_devices, use_box=False)
        run_batched(batch_devices, use_box=False)
        for ds, db in zip(serial_devices, batch_devices):
            assert ds.now_s == pytest.approx(db.now_s, abs=1e-9)
            assert ds.supply.energy_drawn_j == pytest.approx(
                db.supply.energy_drawn_j, abs=1e-6
            )
            for node in range(len(ds.thermal.node_names)):
                assert ds.thermal.temperature_at(node) == pytest.approx(
                    db.thermal.temperature_at(node), abs=TRACE_ATOL
                )
            assert ds.soc.mitigation == db.soc.mitigation
            for cs, cb in zip(ds.soc.clusters, db.soc.clusters):
                assert cs.freq_mhz == cb.freq_mhz
                assert cs.online_count == cb.online_count

    def test_second_model_agrees(self):
        # A little/big SoC with a different ladder and shutdown policy.
        serial_devices = build_fleet(2, model="Nexus 6P")
        batch_devices = build_fleet(2, model="Nexus 6P")
        serial = run_serial(serial_devices, use_box=False)
        batched, _ = run_batched(batch_devices, use_box=False)
        for i, (world, _) in enumerate(serial):
            for channel in world.trace.channels:
                np.testing.assert_allclose(
                    world.trace.column(channel),
                    batched.traces[i].column(channel),
                    rtol=0,
                    atol=TRACE_ATOL,
                )

    def test_mixed_model_fleet_agrees_per_unit(self):
        # Interleaved models exercise the block-diagonal cohort path:
        # results must come back in fleet order, identical to serial.
        def mixed():
            a = build_fleet(2)
            b = build_fleet(2, model="Nexus 6")
            return [a[0], b[0], a[1], b[1]]

        serial = run_serial(mixed(), use_box=False)
        batched, cooldown_b = run_batched(mixed(), use_box=False)
        for i, (world, cooldown_s) in enumerate(serial):
            trace_s, trace_b = world.trace, batched.traces[i]
            np.testing.assert_array_equal(trace_s.times(), trace_b.times())
            for channel in trace_s.channels:
                np.testing.assert_allclose(
                    trace_s.column(channel),
                    trace_b.column(channel),
                    rtol=0,
                    atol=TRACE_ATOL,
                    err_msg=f"unit {i} channel {channel}",
                )
            assert cooldown_s == pytest.approx(cooldown_b[i], abs=1e-9)
            events_s = [(e.time_s, e.kind, e.detail) for e in world.events]
            events_b = [
                (e.time_s, e.kind, e.detail) for e in batched.event_logs[i]
            ]
            assert events_s == events_b


class TestRandomStreamHandBack:
    """``finalize`` leaves every generator where N serial worlds would.

    The batched engine reads each unit's draws ahead in blocks; after the
    hand-back, the OS and sensor streams must sit exactly where the serial
    run left them, so anything drawing from the devices afterwards sees
    the same values.
    """

    @pytest.mark.parametrize("use_box", [False, True])
    def test_streams_end_where_serial_streams_end(self, use_box):
        count = 3
        serial_devices = build_fleet(count)
        batch_devices = build_fleet(count)
        run_serial(serial_devices, use_box)
        batched, _ = run_batched(batch_devices, use_box)
        # Every unit's OS stream crosses at least one block refill.
        assert batched.looped_steps.min() > rng_module.BLOCK_LENGTH
        for ds, db in zip(serial_devices, batch_devices):
            for serial_rng, batch_rng in (
                (ds.os.rng, db.os.rng),
                (ds.sensor.rng, db.sensor.rng),
            ):
                assert (
                    batch_rng.bit_generator.state
                    == serial_rng.bit_generator.state
                )
                assert batch_rng.normal() == serial_rng.normal()


class TestNormalBlocks:
    """The block reader replays per-call ``Generator.normal`` exactly."""

    LOC, SCALE = 0.015, 0.004

    @staticmethod
    def streams(seeds):
        return [np.random.default_rng(seed) for seed in seeds]

    def test_mixed_takes_match_per_call_draws_across_refills(
        self, monkeypatch
    ):
        monkeypatch.setattr(rng_module, "BLOCK_LENGTH", 3)
        seeds = (11, 12, 13, 14)
        streams = self.streams(seeds)
        reader = rng_module.NormalBlocks(streams)
        reference = self.streams(seeds)
        loc, scale = self.LOC, self.SCALE

        def expect(unit):
            return reference[unit].normal(loc, scale)

        everyone = np.arange(len(seeds))
        # Noise-style all-unit takes, steal-style single-unit takes and
        # sensor-style masked-row takes, interleaved so cursors drift
        # apart and rows refill at different moments.
        schedule = [
            None, [1], [0, 2], None, [1], [1], None, [3], [1, 2, 3], None,
            [0], None, None, [], [3], None,
        ]
        for rows in schedule:
            if rows is None:
                got = loc + scale * reader.take_all()
                rows = everyone
            else:
                rows = np.array(rows, dtype=np.int64)
                got = loc + scale * reader.take(rows)
            want = [expect(unit) for unit in rows]
            np.testing.assert_array_equal(got, np.asarray(want))

        reader.hand_back()
        for rng, ref in zip(streams, reference):
            assert rng.bit_generator.state == ref.bit_generator.state
        # After a hand-back the reader starts afresh from the rewound state.
        np.testing.assert_array_equal(
            loc + scale * reader.take_all(), [expect(unit) for unit in everyone]
        )

    def test_hand_back_without_draws_is_a_no_op(self):
        streams = self.streams((21, 22))
        before = [rng.bit_generator.state for rng in streams]
        rng_module.NormalBlocks(streams).hand_back()
        assert [rng.bit_generator.state for rng in streams] == before

    def test_unit_without_a_stream_is_never_drawn(self):
        streams = self.streams((31, 32))
        reader = rng_module.NormalBlocks([streams[0], None, streams[1]])
        reference = self.streams((31, 32))
        got = reader.take(np.array([0, 2]))
        want = [reference[0].standard_normal(), reference[1].standard_normal()]
        np.testing.assert_array_equal(got, want)
        reader.hand_back()
        for rng, ref in zip(streams, reference):
            assert rng.bit_generator.state == ref.bit_generator.state


class TestBatchedValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(SimulationError):
            BatchedWorld([], room_temp_c=AMBIENT)

    def test_rejects_euler_devices(self):
        devices = synthetic_fleet(
            "Nexus 5", 2, thermal_solver="euler", initial_temp_c=AMBIENT
        )
        for device in devices:
            device.connect_supply(MonsoonPowerMonitor(VOLTS))
        with pytest.raises(SimulationError):
            BatchedWorld(devices, room_temp_c=AMBIENT)

    def test_run_for_requires_awake_units(self):
        world = BatchedWorld(build_fleet(2), room_temp_c=AMBIENT)
        with pytest.raises(SimulationError):
            world.run_for(1.0)

    def test_cooldown_requires_suspended_units(self):
        world = BatchedWorld(build_fleet(2), room_temp_c=AMBIENT)
        world.acquire_wakelock()
        with pytest.raises(SimulationError):
            world.run_cooldown(np.full(2, 38.0), 5.0, 100.0)

    def test_cooldown_timeout_matches_serial_error(self):
        world = BatchedWorld(build_fleet(2), room_temp_c=AMBIENT)
        with pytest.raises(SimulationError, match="timed out"):
            # An unreachable target (below ambient) must hit the timeout.
            world.run_cooldown(np.full(2, -100.0), 5.0, 20.0)


class TestBatchedThermabox:
    def test_columns_match_serial_chambers_exactly(self):
        count = 3
        config = ThermaboxConfig(target_c=AMBIENT)
        batched = BatchedThermabox(config, count=count, initial_temp_c=AMBIENT)
        serial = [
            Thermabox(config, initial_temp_c=AMBIENT) for _ in range(count)
        ]
        batched.wait_until_stable(ROOM)
        for chamber in serial:
            chamber.wait_until_stable(ROOM)
        rng = np.random.default_rng(3)
        mask = np.ones(count, dtype=bool)
        for _ in range(400):
            loads = rng.uniform(0.0, 6.0, size=count)
            batched.step_masked(mask, ROOM, DT, loads)
            for i, chamber in enumerate(serial):
                chamber.step(ROOM, DT, load_w=float(loads[i]))
        for i, chamber in enumerate(serial):
            assert batched.air_temps_c[i] == chamber.air_temp_c
            assert batched.heater_duty_seconds[i] == chamber.heater_duty_seconds
            assert batched.cooler_duty_seconds[i] == chamber.cooler_duty_seconds

    def test_masked_columns_do_not_advance(self):
        count = 2
        batched = BatchedThermabox(
            ThermaboxConfig(target_c=AMBIENT), count=count, initial_temp_c=AMBIENT
        )
        frozen_air = batched.air_temps_c[1]
        frozen_time = batched.elapsed_s[1]
        mask = np.array([True, False])
        for _ in range(50):
            batched.step_masked(mask, ROOM, DT, np.full(count, 4.0))
        assert batched.air_temps_c[1] == frozen_air
        assert batched.elapsed_s[1] == frozen_time
        assert batched.elapsed_s[0] == pytest.approx(50 * DT)


class TestColumnarTraceStore:
    """Per-unit traces and event logs built from the cohort store.

    The protocol of :func:`run_batched` exits cooldown at a poll boundary
    that is also a decimated awake step, so every unit's last macro-window
    sample is overwritten by the workload's first sample (the same-stamp
    rule).  After a minute of warmup the 6P units leave cooldown at
    different polls, so their row cursors differ.
    """

    @staticmethod
    def mirror_appends(monkeypatch):
        """Feed every store write to per-unit ``Trace.append`` as well.

        The reference is the per-unit append path the store replaced:
        same rows, same order, same-stamp overwrites done by the trace.
        """
        cohort = batch_module._CohortWorld
        record, set_phase = cohort._record_traces, cohort.set_phase
        mirrors = {}
        overwrites = []

        def traces_of(world):
            return mirrors.setdefault(
                id(world), [Trace(TRACE_CHANNELS) for _ in range(world.count)]
            )

        def mirrored_record(self, units, clock_now, ambient, supply, soc_power, asleep):
            online = self._online_totals()
            for i in units:
                trace = traces_of(self)[i]
                if len(trace) and clock_now[i] == trace.times()[-1]:
                    overwrites.append(i)
                trace.append(clock_now[i], [
                    self._temps[i, self._idx_cpu], self._temps[i, self._idx_case],
                    ambient[i], supply[i], soc_power[i],
                    self._clusters[0].freq[i], online[i], self._stw_steps[i],
                    asleep,
                ])
            record(self, units, clock_now, ambient, supply, soc_power, asleep)

        def mirrored_phase(self, name):
            for i, trace in enumerate(traces_of(self)):
                now = self._clock_steps[i] * self._dt
                if self._phase is not None:
                    trace.end_phase(now)
                if name is not None:
                    trace.begin_phase(name, now)
            set_phase(self, name)

        monkeypatch.setattr(cohort, "_record_traces", mirrored_record)
        monkeypatch.setattr(cohort, "set_phase", mirrored_phase)
        return mirrors, overwrites

    def test_built_traces_and_events_match_serial_and_append(self, monkeypatch):
        count, model, warmup = 4, "Nexus 6P", 60.0
        serial = run_serial(build_fleet(count, model), False, warmup)
        mirrors, overwrites = self.mirror_appends(monkeypatch)
        batched, cooldown = run_batched(build_fleet(count, model), False, warmup)
        reference = mirrors[id(batched._cohorts[0][1])]
        assert np.unique(cooldown).size > 1, "cooldown exits did not stagger"
        assert len(set(overwrites)) == count, "no same-stamp overwrite per unit"
        for i, (world, _) in enumerate(serial):
            built = batched.traces[i]
            # Byte-equal to the per-unit append path it replaced.
            assert built.samples().tobytes() == reference[i].samples().tobytes()
            assert built.phases == reference[i].phases
            # Against the serial engine: the time axis, phases, discrete
            # channels and events are exact; temperatures differ only by
            # GEMM-vs-GEMV summation order.
            trace_s = world.trace
            assert built.times().tobytes() == trace_s.times().tobytes()
            assert built.phases == trace_s.phases
            for channel in ("freq", "online_cores", "throttle_steps", "asleep"):
                assert (
                    built.column(channel).tobytes()
                    == trace_s.column(channel).tobytes()
                ), channel
            np.testing.assert_allclose(
                built.samples(), trace_s.samples(), rtol=0, atol=TRACE_ATOL
            )
            assert [(e.time_s, e.kind, e.detail) for e in world.events] == [
                (e.time_s, e.kind, e.detail) for e in batched.event_logs[i]
            ]

    def test_repeated_reads_return_the_same_objects(self):
        batched, _ = run_batched(build_fleet(2), use_box=False)
        traces, logs = batched.traces, batched.event_logs
        assert all(a is b for a, b in zip(traces, batched.traces))
        assert all(a is b for a, b in zip(logs, batched.event_logs))

    def test_recording_after_a_read_leaves_built_traces_intact(self):
        # Read mid-iteration, right after a cooldown poll window: the next
        # awake step re-records that last stamp, which must overwrite the
        # store's row but not the row the earlier trace already holds.
        world = BatchedWorld(build_fleet(2), room_temp_c=AMBIENT, dt=DT)
        world.acquire_wakelock()
        world.start_load()
        world.run_for(12.0)
        world.stop_load()
        world.release_wakelock()
        world.run_cooldown(np.full(2, 38.0), 5.0, 2700.0)
        early = world.traces
        rows = [trace.samples().copy() for trace in early]
        assert all(row[-1, -1] == 1.0 for row in rows)  # asleep sample
        world.acquire_wakelock()
        world.start_load()
        world.run_for(1.0)
        for trace, row, later in zip(early, rows, world.traces):
            assert trace.samples().tobytes() == row.tobytes()
            assert later.times()[len(row) - 1] == row[-1, 0]
            assert later.column("asleep")[len(row) - 1] == 0.0

    def test_crowd_cohort_builds_no_trace_or_event_log(self, monkeypatch):
        built = []
        init, adopt = Trace.__init__, Trace.from_samples.__func__

        def counted_init(self, *args, **kwargs):
            built.append("init")
            init(self, *args, **kwargs)

        def counted_adopt(cls, *args, **kwargs):
            built.append("from_samples")
            return adopt(cls, *args, **kwargs)

        monkeypatch.setattr(Trace, "__init__", counted_init)
        monkeypatch.setattr(Trace, "from_samples", classmethod(counted_adopt))
        monkeypatch.setattr(
            batch_module._CohortWorld, "_build_event_logs",
            lambda self: built.append("event_logs"),
        )
        result = run_streaming_crowd_study(
            default_crowd_differential_config(user_count=4), cohort_size=4
        )
        assert result.users_simulated == 4
        assert built == []


def awake_steps_until_overload(world, steps):
    """Awake steps completed before the battery refuses the load."""
    for step in range(steps):
        try:
            world.run_for(DT)
        except SimulationError as error:
            assert "exceeds what the battery can deliver" in str(error)
            return step
    return None


def awake_battery_run(devices, steps):
    """Per-unit serial step counts and the batched one, both loaded."""
    serial = []
    for device in devices[0]:
        world = World(
            device, room=ConstantAmbient(AMBIENT), dt=DT, trace_decimation=DECIM
        )
        device.acquire_wakelock()
        device.start_load()
        serial.append(awake_steps_until_overload(world, steps))
    batched = BatchedWorld(
        devices[1], room_temp_c=AMBIENT, dt=DT, trace_decimation=DECIM
    )
    batched.acquire_wakelock()
    batched.start_load()
    return serial, awake_steps_until_overload(batched, steps)


class TestBatteryBound:
    """The scalar deliverability bound never changes what the engine
    accepts: overloads fail on the serial engine's step, and loads under
    the bound skip the exact solve and run."""

    STEPS = 80

    def peak_supply_w(self):
        """Largest supply draw of two loaded units over the test window."""
        devices = battery_fleet(2)
        world = BatchedWorld(devices, room_temp_c=AMBIENT, dt=DT, trace_decimation=1)
        world.acquire_wakelock()
        world.start_load()
        world.run_for(self.STEPS * DT)
        return max(trace.column("power").max() for trace in world.traces)

    def test_overload_fails_on_the_serial_step(self):
        # Resistance sized so the bound falls inside the loaded window:
        # the units warm up, leak more and finally ask for more than the
        # (sagging) battery can deliver.
        peak = self.peak_supply_w()
        ocv = battery_fleet(1)[0].supply.spec.ocv_v(0.8)
        resistance = ocv * ocv / (4.0 * peak * 0.995)
        serial, batched = awake_battery_run(
            (battery_fleet(2, resistance=resistance),
             battery_fleet(2, resistance=resistance)),
            self.STEPS,
        )
        failed = [step for step in serial if step is not None]
        assert failed and min(failed) > 0
        assert batched == min(failed)

    def test_load_just_under_the_bound_skips_the_solve_and_runs(
        self, monkeypatch
    ):
        peak = self.peak_supply_w()
        curve_min = min(v for _, v in battery_fleet(1)[0].supply.spec.ocv_curve)
        resistance = curve_min * curve_min / (4.0 * peak * 1.001)
        solves = []
        solve = batch_module._CohortWorld._battery_terminal_v
        monkeypatch.setattr(
            batch_module._CohortWorld, "_battery_terminal_v",
            lambda self, *a: solves.append(1) or solve(self, *a),
        )
        serial, batched = awake_battery_run(
            (battery_fleet(2, resistance=resistance),
             battery_fleet(2, resistance=resistance)),
            self.STEPS,
        )
        assert serial == [None, None]
        assert batched is None
        assert solves == []


def steps_until_empty(world, steps):
    """Awake steps completed before a battery reports itself empty."""
    for step in range(steps):
        try:
            world.run_for(DT)
        except SimulationError as error:
            assert "battery is empty" in str(error)
            return step
    return None


def charged_fleet(charges):
    devices = synthetic_fleet(
        "Nexus 5", len(charges), thermal_solver="expm", initial_temp_c=AMBIENT
    )
    for device, charge in zip(devices, charges):
        device.connect_supply(Battery(device.spec.battery, state_of_charge=charge))
    return devices


class TestBatteryFloor:
    """The running state-of-charge floor skips the empty check and the
    clamp at zero only while they cannot act: a battery that runs out
    fails on the serial engine's step, with the floor crossing zero
    before, on or after the first step."""

    STEPS = 40

    @pytest.mark.parametrize(
        "charges",
        [(2e-5, 0.6), (0.6, 3e-4, 0.5), (1e-9, 0.6), (0.5, 0.6)],
        ids=["first-step", "mid-run", "at-zero", "never"],
    )
    def test_empty_battery_fails_on_the_serial_step(self, charges):
        serial = []
        for device in charged_fleet(charges):
            world = World(
                device, room=ConstantAmbient(AMBIENT), dt=DT,
                trace_decimation=DECIM,
            )
            device.acquire_wakelock()
            device.start_load()
            serial.append(steps_until_empty(world, self.STEPS))
        batched = BatchedWorld(
            charged_fleet(charges), room_temp_c=AMBIENT, dt=DT,
            trace_decimation=DECIM,
        )
        batched.acquire_wakelock()
        batched.start_load()
        failed = [step for step in serial if step is not None]
        assert steps_until_empty(batched, self.STEPS) == (
            min(failed) if failed else None
        )


class TestScalarGuardsAgainstUnguardedTwin:
    """Each scalar guard of the cohort step against a twin on which it
    never skips: the trace-row countdown (forced to check every step's
    modulo) and the battery floor (forced to the exact empty check and
    clamp).  Staggered cooldown exits put the units on different trace
    phases (a decimation of 7 against 50-step poll windows)."""

    @staticmethod
    def run():
        devices = battery_fleet(4, model="Nexus 6P", charge=0.6)
        world = BatchedWorld(devices, room_temp_c=AMBIENT, dt=DT, trace_decimation=7)
        world.acquire_wakelock()
        world.start_load()
        world.set_phase("warmup")
        world.run_for(60.0)
        world.stop_load()
        world.release_wakelock()
        world.set_phase("cooldown")
        cooldown = world.run_cooldown(
            np.maximum(38.0, world.ambient_now() + 6.0), 5.0, 2700.0
        )
        world.acquire_wakelock()
        world.start_load()
        world.set_phase("workload")
        world.run_for(9.0)
        world.close()
        world.finalize()
        cohort = world._cohorts[0][1]
        return cooldown, [
            world.ops_total.tobytes(), world.energy_drawn_j.tobytes(),
            cohort._bat_soc.tobytes(), cohort._temps.tobytes(),
            *(trace.samples().tobytes() for trace in world.traces),
        ]

    @pytest.mark.parametrize("guard", ["trace-countdown", "battery-floor"])
    def test_guarded_run_is_bit_identical(self, monkeypatch, guard):
        cooldown, want = self.run()
        assert np.unique(cooldown).size > 1, "cooldown exits did not stagger"
        cohort = batch_module._CohortWorld
        if guard == "trace-countdown":
            monkeypatch.setattr(cohort, "_steps_to_trace", lambda self: 0)
        else:
            for name in ("_battery_draw_awake", "_battery_draw_masked"):
                draw = getattr(cohort, name)

                def unguarded(self, *args, _draw=draw):
                    self._bat_floor = 0.0
                    return _draw(self, *args)

                monkeypatch.setattr(cohort, name, unguarded)
        _, got = self.run()
        assert got == want


@pytest.fixture(scope="module")
def weak_battery_cohort():
    """A one-unit battery cohort with a high internal resistance."""
    devices = battery_fleet(1, resistance=1.5)
    return batch_module._CohortWorld(devices, room_temp_c=AMBIENT, dt=DT)


@settings(max_examples=300, deadline=None)
@given(
    soc=st.floats(min_value=1e-9, max_value=1.0),
    near=st.sampled_from(["scalar", "exact"]),
    scale=st.floats(min_value=0.999, max_value=1.001),
)
def test_scalar_bound_never_passes_a_rejected_load(
    weak_battery_cohort, soc, near, scale
):
    """Wherever the scalar bound would skip the exact solve, the solve
    accepts the load; near each unit's own limit it still rejects."""
    cohort = weak_battery_cohort
    cohort._bat_soc = np.array([soc])
    ocv = float(cohort._battery_ocv(cohort._bat_soc)[0])
    limit = ocv * ocv / (4.0 * cohort._bat_resistance)
    power = np.array([scale * (cohort._bat_safe_w if near == "scalar" else limit)])
    if power.max() < cohort._bat_safe_w:
        cohort._battery_terminal_v(power)  # the skipped check must pass
    if power[0] > limit * (1 + 1e-9):
        with pytest.raises(SimulationError):
            cohort._battery_terminal_v(power)


class TestGovernorCacheOnBattery:
    """The governor replay cache on battery cohorts: on without a
    voltage throttle (nothing it reads moves with the battery), off with
    one, and within BATCH_SPEC of the serial engine either way.  The
    Nexus 5 has no RBCPR, so the voltage throttle alone decides."""

    #: Engages under load: the battery at 80 % opens near 4.05 V and sags.
    THROTTLE = InputVoltageThrottle(threshold_v=4.0, ceiling_mhz=1190.4)

    @pytest.mark.parametrize("throttle, cached", [(None, True), (THROTTLE, False)])
    def test_cache_engagement_and_serial_agreement(self, throttle, cached):
        count = 2
        serial = run_serial(
            battery_fleet(count, voltage_throttle=throttle), use_box=False
        )
        batched, cooldown_b = run_batched(
            battery_fleet(count, voltage_throttle=throttle), use_box=False
        )
        cohort = batched._cohorts[0][1]
        assert cohort._gov_cacheable is cached
        assert (cohort._gov_cache is not None) is cached
        if throttle is not None:
            capped = [
                trace.phase_column("workload", "freq").min()
                for trace in batched.traces
            ]
            assert max(capped) <= throttle.ceiling_mhz
        for i, (world, cooldown_s) in enumerate(serial):
            device = world.device
            results = [
                iteration_result(
                    device, "pi", trace, energy, ops, cooldown, 15.0, False
                )
                for trace, energy, ops, cooldown in (
                    (world.trace, device.supply.energy_drawn_j,
                     world.ops_total, cooldown_s),
                    (batched.traces[i], float(batched.energy_drawn_j[i]),
                     float(batched.ops_total[i]), float(cooldown_b[i])),
                )
            ]
            assert BATCH_SPEC.compare_iteration(*results) == []
