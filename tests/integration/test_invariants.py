"""Cross-cutting physical invariants, property-tested.

These hold for *any* parameterization, not just the calibrated catalog:
energy conservation in the thermal network, monotone physics (more
voltage → more power; hotter → leakier), and accounting identities in the
instruments and engine.  The engine-level identities run under the
:mod:`repro.check` runtime invariant suite — the same checkers
``repro-bench check --invariants`` attaches — so a drift fails here the
same way it would fail in the field.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check import InvariantSuite, Tolerance, ToleranceSpec
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.sim.engine import World
from repro.thermal.network import ThermalLink, ThermalNetwork, ThermalNode


class TestThermalEnergyBalance:
    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=8.0),
        st.floats(min_value=1.0, max_value=20.0),
        st.floats(min_value=1.0, max_value=10.0),
    )
    def test_stored_plus_leaked_equals_injected(self, power, capacity, resistance):
        """Energy injected = energy stored + energy conducted to ambient."""
        net = ThermalNetwork(
            nodes=[ThermalNode("die", capacity), ThermalNode("ambient", math.inf)],
            links=[ThermalLink("die", "ambient", resistance)],
            initial_temp_c=25.0,
        )
        dt = 0.05
        steps = 400
        leaked = 0.0
        injected_w = np.zeros(len(net.node_names))
        (die,) = net.injection_indices(["die"])
        injected_w[die] = power
        for _ in range(steps):
            # Integrate the boundary flux with the pre-step temperature --
            # matching Euler's zero-order hold inside the network.
            leaked += (net.temperature("die") - 25.0) / resistance * dt
            net.step_vector(injected_w, dt)
        injected = power * steps * dt
        stored = capacity * (net.temperature("die") - 25.0)
        assert injected == pytest.approx(stored + leaked, rel=0.02)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=30.0, max_value=90.0))
    def test_no_power_never_heats(self, start_temp):
        net = ThermalNetwork(
            nodes=[ThermalNode("die", 3.0), ThermalNode("ambient", math.inf)],
            links=[ThermalLink("die", "ambient", 2.0)],
            initial_temp_c=25.0,
        )
        net.set_temperature("die", start_temp)
        previous = start_temp
        idle = np.zeros(len(net.node_names))
        for _ in range(100):
            net.step_vector(idle, 0.1)
            current = net.temperature("die")
            assert current <= previous + 1e-9
            previous = current


class TestDevicePowerMonotonicity:
    def _power_at(self, device, freq_mhz):
        device.acquire_wakelock()
        device.start_load()
        device.set_fixed_frequency(freq_mhz)
        report = device.step(26.0, 0.1)
        return report.soc_power_w

    def test_power_monotone_in_frequency(self):
        device = build_device(PAPER_FLEETS["Nexus 5"][1])
        device.connect_supply(MonsoonPowerMonitor(3.8))
        ladder = (300.0, 960.0, 1574.0, 2265.0)
        powers = [self._power_at(device, f) for f in ladder]
        assert powers == sorted(powers)

    def test_supply_power_at_least_rail_power(self):
        device = build_device(PAPER_FLEETS["Nexus 5"][1])
        device.connect_supply(MonsoonPowerMonitor(3.8))
        device.acquire_wakelock()
        device.start_load()
        report = device.step(26.0, 0.1)
        # Regulator losses mean the supply side always exceeds the SoC rail.
        assert report.supply_power_w > report.soc_power_w


class TestEngineAccountingIdentities:
    #: Trace-integral vs instrument-accumulator drift budget.
    ACCOUNTING_SPEC = ToleranceSpec(
        name="engine-accounting",
        fields=(("energy_j", Tolerance(rel_tol=0.01)),),
    )

    def test_monsoon_energy_equals_power_time_integral(self):
        device = build_device(PAPER_FLEETS["Nexus 5"][0])
        monsoon = MonsoonPowerMonitor(3.8)
        device.connect_supply(monsoon)
        world = World(device, dt=0.1, trace_decimation=1)
        # The runtime EnergyConservation checker asserts the same identity
        # step by step while the run is still live.
        suite = InvariantSuite()
        world.attach_observer(suite)
        device.acquire_wakelock()
        device.start_load()
        world.run_for(20.0)
        assert suite.steps_checked == 200
        # End-of-run: the trace records supply power each step; its
        # integral must match the Monsoon's accumulator.
        powers = world.trace.column("power")
        divergence = self.ACCOUNTING_SPEC.compare_scalar(
            "energy_j",
            monsoon.energy_drawn_j,
            float(powers.sum()) * 0.1,
            context="monsoon-vs-trace",
        )
        assert divergence is None, divergence.describe()

    def test_ops_total_matches_frequency_integral(self):
        device = build_device(PAPER_FLEETS["Nexus 5"][0])
        device.connect_supply(MonsoonPowerMonitor(3.8))
        # Silence OS steal so the identity is exact.
        device.os.steal_mean = 0.0
        device.os.steal_sigma = 0.0
        world = World(device, dt=0.1, trace_decimation=1)
        device.acquire_wakelock()
        device.start_load()
        device.set_fixed_frequency(960.0)
        world.run_for(10.0)
        expected_ops = 4 * 960e6 * 1.0 * 10.0  # cores x Hz x ipc x seconds
        assert world.ops_total == pytest.approx(expected_ops, rel=1e-6)


class TestSiliconOrderingsSurviveTheStack:
    """The fundamental orderings must hold for arbitrary sampled silicon,
    not just the calibrated fleets."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_leakier_unit_draws_more_power_hot(self, seed):
        from repro.device.fleet import synthetic_fleet

        fleet = synthetic_fleet("Google Pixel", 2, lot_name=f"prop-{seed}")
        a, b = fleet
        if a.profile.leak_factor == b.profile.leak_factor:
            return
        leaky, lean = (
            (a, b) if a.profile.leak_factor > b.profile.leak_factor else (b, a)
        )
        for device in (leaky, lean):
            device.connect_supply(MonsoonPowerMonitor(3.85))
            device.thermal.settle_to(70.0)
            device.acquire_wakelock()
            device.start_load()
            device.set_fixed_frequency(1075.0)
        power_leaky = leaky.step(26.0, 0.1).soc_power_w
        power_lean = lean.step(26.0, 0.1).soc_power_w
        assert power_leaky > power_lean
