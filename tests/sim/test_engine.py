"""The world stepper."""

import numpy as np
import pytest

from repro.device.fleet import PAPER_FLEETS, build_device
from repro.errors import SimulationError
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.thermabox import Thermabox
from repro.sim.engine import World
from repro.thermal.ambient import ConstantAmbient


def make_world(chamber=None, room=None, dt=0.1) -> World:
    device = build_device(PAPER_FLEETS["Nexus 5"][0])
    device.connect_supply(MonsoonPowerMonitor(3.8))
    return World(device, room=room, chamber=chamber, dt=dt, trace_decimation=1)


class TestStepping:
    def test_time_advances(self):
        world = make_world()
        world.run_for(1.0)
        assert world.now == pytest.approx(1.0)

    def test_trace_accumulates(self):
        world = make_world()
        world.run_for(1.0)
        assert len(world.trace) == 10

    def test_trace_decimation(self):
        device = build_device(PAPER_FLEETS["Nexus 5"][0])
        device.connect_supply(MonsoonPowerMonitor(3.8))
        world = World(device, dt=0.1, trace_decimation=5)
        world.run_for(1.0)
        assert len(world.trace) == 2

    def test_default_room_is_paper_ambient(self):
        world = make_world()
        assert world.ambient_c == 26.0

    def test_ops_accumulate_under_load(self):
        world = make_world()
        world.device.acquire_wakelock()
        world.device.start_load()
        world.run_for(2.0)
        assert world.ops_total > 0.0

    def test_no_ops_while_asleep(self):
        world = make_world()
        world.run_for(2.0)
        assert world.ops_total == 0.0

    def test_bad_duration_rejected(self):
        with pytest.raises(SimulationError):
            make_world().run_for(0.0)

    def test_duration_shorter_than_step_rejected(self):
        with pytest.raises(SimulationError):
            make_world(dt=1.0).run_for(0.2)

    def test_run_for_matches_repeated_step(self):
        # run_for inlines the step() body for speed; the two paths must
        # stay bit-identical.
        fast = make_world(chamber=Thermabox(initial_temp_c=26.0))
        slow = make_world(chamber=Thermabox(initial_temp_c=26.0))
        for world in (fast, slow):
            world.device.acquire_wakelock()
            world.device.start_load()
        fast.run_for(5.0)
        for _ in range(50):
            slow.step()
        assert fast.now == slow.now
        assert fast.ops_total == slow.ops_total
        assert len(fast.trace) == len(slow.trace)
        for channel in ("time", "cpu_temp", "power", "freq", "online_cores"):
            assert np.array_equal(fast.trace.column(channel), slow.trace.column(channel))


class TestAmbientCoupling:
    def test_room_profile_drives_device(self):
        world = make_world(room=ConstantAmbient(20.0))
        world.run_for(0.5)
        assert world.device.thermal.temperature("ambient") == 20.0
        world.room = ConstantAmbient(35.0)
        world.run_for(1.0)
        assert world.device.thermal.temperature("ambient") == 35.0

    def test_chamber_overrides_room(self):
        chamber = Thermabox(initial_temp_c=26.0)
        world = make_world(chamber=chamber, room=ConstantAmbient(5.0))
        world.run_for(1.0)
        # Device sees the chamber air, not the cold room.
        assert world.device.thermal.temperature("ambient") > 20.0

    def test_device_heat_loads_chamber(self):
        chamber = Thermabox(initial_temp_c=26.0)
        world = make_world(chamber=chamber)
        world.device.acquire_wakelock()
        world.device.start_load()
        world.run_for(30.0)
        # The chamber absorbed the phone's multi-watt output and stayed
        # within its regulation band.
        assert chamber.is_within_band()


class TestPhasesAndEvents:
    def test_phase_annotation_flows_to_trace(self):
        world = make_world()
        world.set_phase("warmup")
        world.run_for(1.0)
        world.set_phase("cooldown")
        world.run_for(1.0)
        world.close()
        assert [p.name for p in world.trace.phases] == ["warmup", "cooldown"]

    def test_phase_events_logged(self):
        world = make_world()
        world.set_phase("warmup")
        world.run_for(0.5)
        world.close()
        assert world.events.count("phase") == 1

    def test_throttle_events_recorded_on_hot_run(self):
        world = make_world()
        world.device.acquire_wakelock()
        world.device.start_load()
        world.run_for(400.0)
        assert world.events.count("throttle-step") > 0

    def test_core_shutdown_event_on_nexus5(self):
        # Drive the die to its hard limit: start hot so the stepwise
        # governor cannot save it.
        world = make_world()
        world.device.thermal.settle_to(79.5)
        world.device.acquire_wakelock()
        world.device.start_load()
        world.run_for(10.0)
        assert world.events.count("core-offline") >= 1


class TestRunUntil:
    def test_returns_elapsed(self):
        world = make_world()
        elapsed = world.run_until(
            lambda w: w.now >= 0.95, check_every_s=0.1, timeout_s=10.0
        )
        assert elapsed == pytest.approx(1.0, abs=0.2)

    def test_timeout_raises(self):
        world = make_world()
        with pytest.raises(SimulationError):
            world.run_until(lambda w: False, check_every_s=0.5, timeout_s=2.0)

    def test_check_interval_validated(self):
        world = make_world(dt=1.0)
        with pytest.raises(SimulationError):
            world.run_until(lambda w: True, check_every_s=0.1, timeout_s=1.0)
