"""The batched fleet engine against its serial reference, unit for unit.

The contract (see :mod:`repro.sim.batch`) is draw-for-draw replay: every
random draw, throttle poll and clock tick lands exactly where the serial
``World`` would put it, leaving only BLAS summation order (GEMM vs GEMV)
as a tolerated ulp-level difference on thermal trajectories.
"""

import numpy as np
import pytest

from repro.device.fleet import synthetic_fleet
from repro.errors import SimulationError
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.thermabox import (
    BatchedThermabox,
    Thermabox,
    ThermaboxConfig,
)
from repro.sim import batch as batch_module
from repro.sim.batch import BatchedWorld
from repro.sim.engine import World
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


def run_serial(devices, use_box):
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
        world.run_for(12.0)
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


def run_batched(devices, use_box):
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
    world.unconstrain_frequency()
    world.acquire_wakelock()
    world.start_load()
    world.set_phase("warmup")
    world.run_for(12.0)
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

    @pytest.mark.parametrize("use_box", [False, True])
    def test_mixed_model_fleet_agrees_per_unit(self, use_box):
        # Interleaved models exercise the block-diagonal cohort path:
        # results must come back in fleet order, identical to serial.
        def mixed():
            a = build_fleet(2)
            b = build_fleet(2, model="Nexus 6")
            return [a[0], b[0], a[1], b[1]]

        serial = run_serial(mixed(), use_box)
        batched, cooldown_b = run_batched(mixed(), use_box)
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
        assert batched.looped_steps.min() > batch_module._BLOCK_LENGTH
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
        monkeypatch.setattr(batch_module, "_BLOCK_LENGTH", 3)
        seeds = (11, 12, 13, 14)
        streams = self.streams(seeds)
        reader = batch_module._NormalBlocks(streams)
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
        batch_module._NormalBlocks(streams).hand_back()
        assert [rng.bit_generator.state for rng in streams] == before

    def test_unit_without_a_stream_is_never_drawn(self):
        streams = self.streams((31, 32))
        reader = batch_module._NormalBlocks([streams[0], None, streams[1]])
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
