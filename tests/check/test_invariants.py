"""Invariant checkers: clean runs pass, sabotaged physics is caught."""

import numpy as np
import pytest

from repro.check.invariants import (
    EnergyConservation,
    InvariantSuite,
    MonotoneCooldown,
    TemperatureBounds,
    ThrottleConsistency,
    TraceTimeMonotone,
    default_invariants,
)
from repro.check.strategies import scenario_device, scenario_world
from repro.errors import InvariantViolation, SimulationError
from repro.sim.batch import BatchedWorld
from repro.sim.engine import World
from repro.soc.throttling import MitigationState
from repro.units import PAPER_AMBIENT_C


def warm_world(**kwargs):
    world = scenario_world(dt=0.2, trace_decimation=1, **kwargs)
    world.device.acquire_wakelock()
    world.device.start_load()
    return world


class TestObserverPlumbing:
    def test_suite_observes_every_step(self):
        world = warm_world()
        suite = InvariantSuite()
        world.attach_observer(suite)
        world.run_for(4.0)
        assert suite.steps_checked == 20

    def test_double_attach_rejected(self):
        world = warm_world()
        world.attach_observer(InvariantSuite())
        with pytest.raises(SimulationError):
            world.attach_observer(InvariantSuite())

    def test_detach_returns_observer(self):
        world = warm_world()
        suite = InvariantSuite()
        world.attach_observer(suite)
        assert world.detach_observer() is suite
        assert world.observer is None
        world.attach_observer(InvariantSuite())  # re-attach now fine

    def test_default_invariants_are_fresh_instances(self):
        first, second = default_invariants(), default_invariants()
        assert len(first) == 5
        assert all(a is not b for a, b in zip(first, second))


class TestCleanRunsPass:
    def test_full_suite_on_warm_run(self):
        world = warm_world()
        suite = InvariantSuite()
        world.attach_observer(suite)
        world.set_phase("warmup")
        world.run_for(10.0)
        world.close()
        assert suite.steps_checked > 0

    def test_full_suite_through_fast_forwarded_cooldown(self):
        world = scenario_world(
            dt=0.2, thermal_solver="expm", sleep_fast_forward=True
        )
        world.device.thermal.settle_to(55.0)
        suite = InvariantSuite()
        world.attach_observer(suite)
        world.set_phase("cooldown")
        world.run_until(
            lambda w: w.device.read_cpu_temp() <= 40.0,
            check_every_s=5.0,
            timeout_s=7200.0,
        )
        world.close()
        assert world.fast_forwards > 0
        assert suite.steps_checked > 0


class TestViolationsCaught:
    def test_energy_meter_tampering_detected(self):
        world = warm_world()
        world.attach_observer(InvariantSuite([EnergyConservation()]))
        world.run_for(2.0)
        world.device.supply._energy_total_j += 5.0  # break the identity
        with pytest.raises(InvariantViolation, match="energy-conservation"):
            world.run_for(1.0)

    def test_junction_ceiling_enforced(self):
        world = warm_world()
        world.attach_observer(
            InvariantSuite([TemperatureBounds(junction_max_c=30.0)])
        )
        with pytest.raises(InvariantViolation, match="junction ceiling"):
            world.run_for(60.0)

    def test_cooling_below_every_boundary_detected(self):
        world = scenario_world(dt=0.2, trace_decimation=1)
        world.attach_observer(InvariantSuite([TemperatureBounds()]))
        world.run_for(1.0)
        for name, temp in world.device.thermal.temperatures().items():
            world.device.thermal.set_temperature(name, temp - 40.0)
        with pytest.raises(InvariantViolation, match="coldest boundary"):
            world.run_for(1.0)

    def test_sleeping_device_heating_detected(self):
        world = scenario_world(dt=0.2, trace_decimation=1)
        world.device.thermal.settle_to(55.0)
        world.attach_observer(InvariantSuite([MonotoneCooldown()]))
        world.run_for(2.0)  # asleep, cooling: fine
        for name, temp in world.device.thermal.temperatures().items():
            world.device.thermal.set_temperature(name, temp + 5.0)
        with pytest.raises(InvariantViolation, match="monotone-cooldown"):
            world.run_for(1.0)

    def test_cold_throttle_step_detected(self):
        world = scenario_world(dt=0.2, trace_decimation=1)
        world.attach_observer(InvariantSuite([ThrottleConsistency()]))
        world.run_for(1.0)
        # Deepen mitigation while the die is at room temperature.
        world.device.soc.mitigation = MitigationState(ceiling_steps=2)
        with pytest.raises(InvariantViolation, match="throttle-consistency"):
            world.run_for(1.0)

    def test_stalled_trace_time_detected(self):
        world = warm_world()
        invariant = TraceTimeMonotone()
        world.attach_observer(InvariantSuite([invariant]))
        world.run_for(1.0)
        # Inject a stalled sample behind Trace.append's back (append now
        # overwrites same-stamp rows), emulating an engine that records
        # without advancing its clock.
        trace = world.trace
        trace._buffer[trace._size] = trace._buffer[trace._size - 1]
        trace._size += 1
        trace._views.clear()
        with pytest.raises(InvariantViolation, match="trace-time-monotone"):
            world.run_for(1.0)

    def test_violation_carries_context(self):
        world = warm_world()
        world.attach_observer(
            InvariantSuite([TemperatureBounds(junction_max_c=30.0)])
        )
        world.set_phase("warmup")
        with pytest.raises(InvariantViolation) as caught:
            world.run_for(60.0)
        message = str(caught.value)
        assert "phase warmup" in message
        assert "t=" in message
        assert world.device.serial in message


class UnitUnderCheck:
    """One warm expm unit with every invariant armed, on either engine.

    Each seeded fault reaches into the engine's own state: the serial
    device's supply, thermal network, mitigation and trace, or the
    batched cohort's arrays.
    """

    def __init__(self, engine):
        self.device = scenario_device(thermal_solver="expm")
        if engine == "serial":
            self.world = World(self.device, dt=0.2, trace_decimation=1)
            self.world.attach_observer(InvariantSuite())
            self.cohort = None
            awake = self.device
        else:
            self.world = BatchedWorld(
                [self.device],
                room_temp_c=PAPER_AMBIENT_C,
                dt=0.2,
                trace_decimation=1,
                check_invariants=True,
            )
            self.cohort = self.world._cohorts[0][1]
            awake = self.world
        awake.acquire_wakelock()
        awake.start_load()
        self.world.set_phase("warmup")

    def tamper_meter(self, joules):
        if self.cohort is None:
            self.device.supply._energy_total_j += joules
        else:
            self.cohort._energy_total += joules

    def chill(self, delta_c):
        if self.cohort is None:
            thermal = self.device.thermal
            for name, temp in thermal.temperatures().items():
                thermal.set_temperature(name, temp - delta_c)
        else:
            self.cohort._temps -= delta_c

    def force_throttle(self, steps):
        """Deepen the stepwise mitigation policy without a hot die."""
        if self.cohort is None:
            self.device.soc.throttle.stepwise._steps = steps
        else:
            self.cohort._stw_steps[:] = steps

    def stall_trace(self):
        """Record the next sample without advancing past the last one."""
        if self.cohort is None:
            trace = self.world.trace
            trace._buffer[trace._size] = trace._buffer[trace._size - 1]
            trace._size += 1
            trace._views.clear()
        else:
            self.cohort._clock_steps -= 1
            self.cohort._last_trace_stamp[:] = -np.inf


@pytest.mark.parametrize("engine", ["serial", "batched"])
class TestViolationsCaughtOnBothEngines:
    """The same seeded fault trips the same check on the same device,
    whichever engine's observer drives the shared invariants."""

    def assert_violation(self, unit, name, fragment):
        with pytest.raises(InvariantViolation) as caught:
            unit.world.run_for(1.0)
        message = str(caught.value)
        assert message.startswith(f"[{name}] "), message
        assert fragment in message
        assert f"device {unit.device.serial}" in message

    def test_energy_meter_tampering(self, engine):
        unit = UnitUnderCheck(engine)
        unit.world.run_for(2.0)
        unit.tamper_meter(5.0)
        self.assert_violation(unit, "energy-conservation", "supply meter reads")

    def test_cooling_below_coldest_boundary(self, engine):
        unit = UnitUnderCheck(engine)
        unit.world.run_for(1.0)
        unit.chill(40.0)
        self.assert_violation(unit, "temperature-bounds", "coldest boundary")

    def test_cold_throttle_step(self, engine):
        unit = UnitUnderCheck(engine)
        unit.world.run_for(1.0)
        unit.force_throttle(2)
        self.assert_violation(unit, "throttle-consistency", "throttle deepened")

    def test_stalled_trace_sample(self, engine):
        unit = UnitUnderCheck(engine)
        unit.world.run_for(1.0)
        unit.stall_trace()
        self.assert_violation(unit, "trace-time-monotone", "does not advance")


class TestProtocolIntegration:
    def test_check_invariants_config_runs_clean(self, fast_config):
        from dataclasses import replace

        from repro.core.experiments import unconstrained
        from repro.core.runner import CampaignConfig, CampaignRunner

        config = CampaignConfig(
            accubench=replace(fast_config, check_invariants=True),
            use_thermabox=False,
        )
        result = CampaignRunner(config).run_device(
            scenario_device(), unconstrained(), iterations=1
        )
        assert result.iterations[0].energy_j > 0.0

    @pytest.mark.parametrize("batch", [False, True])
    def test_invariants_with_fast_forward_at_tiny_scale(self, batch):
        # Regression: at scales where a cooldown fast-forward window ends
        # exactly on a decimated step's clock reading, the engine used to
        # record two trace samples with the same stamp, tripping the
        # trace-time-monotone checker.  Same-stamp re-records now
        # overwrite (Trace.append), on both engines.
        from repro.core.config import AccubenchConfig
        from repro.core.experiments import unconstrained
        from repro.core.runner import CampaignConfig, CampaignRunner
        from repro.device.fleet import synthetic_fleet

        accubench = AccubenchConfig(
            thermal_solver="expm",
            sleep_fast_forward=True,
            check_invariants=True,
            batch=batch,
        ).scaled(0.05)
        runner = CampaignRunner(CampaignConfig(accubench=accubench, jobs=1))
        devices = synthetic_fleet(
            "Nexus 5", 4, thermal_solver="expm", initial_temp_c=26.0
        )
        result = runner.run_fleet("Nexus 5", unconstrained(), devices=devices)
        assert len(result.devices) == 4
