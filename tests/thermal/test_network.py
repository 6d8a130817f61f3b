"""RC thermal networks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.thermal.network import ThermalLink, ThermalNetwork, ThermalNode


def power_vector(net, watts=None):
    """A :meth:`ThermalNetwork.step_vector` input: ``watts`` by node name."""
    power = np.zeros(len(net.node_names))
    names = list(watts or {})
    for index, name in zip(net.injection_indices(names), names):
        power[index] = watts[name]
    return power


def two_node_network(initial=25.0, r=2.0, c=10.0) -> ThermalNetwork:
    return ThermalNetwork(
        nodes=[ThermalNode("die", c), ThermalNode("ambient", math.inf)],
        links=[ThermalLink("die", "ambient", r)],
        initial_temp_c=initial,
    )


class TestNodesAndLinks:
    def test_boundary_detection(self):
        assert ThermalNode("ambient", math.inf).is_boundary
        assert not ThermalNode("die", 5.0).is_boundary

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalNode("die", 0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalNode("", 5.0)

    def test_self_link_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalLink("a", "a", 1.0)

    def test_zero_resistance_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalLink("a", "b", 0.0)

    def test_conductance(self):
        assert ThermalLink("a", "b", 4.0).conductance == pytest.approx(0.25)


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalNetwork(
                nodes=[ThermalNode("x", 1.0), ThermalNode("x", math.inf)],
                links=[],
            )

    def test_unknown_link_endpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalNetwork(
                nodes=[ThermalNode("die", 1.0), ThermalNode("ambient", math.inf)],
                links=[ThermalLink("die", "nowhere", 1.0)],
            )

    def test_requires_boundary_node(self):
        with pytest.raises(ConfigurationError):
            ThermalNetwork(nodes=[ThermalNode("die", 1.0)], links=[])

    def test_initial_temps_applied(self):
        net = ThermalNetwork(
            nodes=[ThermalNode("die", 1.0), ThermalNode("ambient", math.inf)],
            links=[ThermalLink("die", "ambient", 1.0)],
            initial_temp_c=20.0,
            initial_temps_c={"die": 55.0},
        )
        assert net.temperature("die") == 55.0
        assert net.temperature("ambient") == 20.0


class TestDynamics:
    def test_relaxes_to_ambient(self):
        net = two_node_network(initial=25.0)
        net.set_temperature("die", 80.0)
        idle = power_vector(net)
        for _ in range(10000):
            net.step_vector(idle, 0.1)
        assert net.temperature("die") == pytest.approx(25.0, abs=0.01)

    def test_heats_toward_dc_solution(self):
        net = two_node_network(r=2.0, c=10.0)
        power = power_vector(net, {"die": 5.0})
        for _ in range(5000):
            net.step_vector(power, 0.1)
        # DC: rise = P * R = 10 C above ambient.
        assert net.temperature("die") == pytest.approx(35.0, abs=0.05)

    def test_boundary_holds_temperature(self):
        net = two_node_network()
        power = power_vector(net, {"die": 10.0})
        for _ in range(100):
            net.step_vector(power, 0.1)
        assert net.temperature("ambient") == 25.0

    def test_power_into_boundary_rejected(self):
        net = two_node_network()
        with pytest.raises(SimulationError):
            net.injection_indices(["ambient"])

    def test_non_positive_dt_rejected(self):
        net = two_node_network()
        with pytest.raises(SimulationError):
            net.step_vector(power_vector(net), 0.0)

    def test_unknown_power_target_rejected(self):
        with pytest.raises(ConfigurationError):
            two_node_network().injection_indices(["gpu"])

    def test_stability_with_large_step(self):
        # dt far above the node time constant must not blow up thanks to
        # automatic sub-stepping.
        net = two_node_network(r=0.5, c=0.2)  # tau = 0.1 s
        power = power_vector(net, {"die": 3.0})
        for _ in range(100):
            net.step_vector(power, 1.0)
        assert net.temperature("die") == pytest.approx(25.0 + 1.5, abs=0.05)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.1, max_value=8.0))
    def test_monotone_heating_from_equilibrium(self, power):
        net = two_node_network()
        previous = net.temperature("die")
        injected = power_vector(net, {"die": power})
        for _ in range(50):
            net.step_vector(injected, 0.2)
            current = net.temperature("die")
            assert current >= previous - 1e-9
            previous = current

    def test_heat_flows_down_gradient_in_chain(self):
        net = ThermalNetwork(
            nodes=[
                ThermalNode("die", 2.0),
                ThermalNode("case", 20.0),
                ThermalNode("ambient", math.inf),
            ],
            links=[
                ThermalLink("die", "case", 2.0),
                ThermalLink("case", "ambient", 5.0),
            ],
            initial_temp_c=25.0,
        )
        power = power_vector(net, {"die": 2.0})
        for _ in range(20000):
            net.step_vector(power, 0.1)
        die, case, amb = (
            net.temperature("die"),
            net.temperature("case"),
            net.temperature("ambient"),
        )
        assert die > case > amb
        # DC check: die = 25 + 2*(2+5) = 39, case = 25 + 2*5 = 35.
        assert die == pytest.approx(39.0, abs=0.05)
        assert case == pytest.approx(35.0, abs=0.05)


class TestSteadyState:
    def test_steady_state_rise(self):
        net = two_node_network(r=3.0)
        assert net.steady_state_rise("die", 2.0, "ambient") == pytest.approx(6.0)

    def test_rise_through_chain(self):
        net = ThermalNetwork(
            nodes=[
                ThermalNode("die", 2.0),
                ThermalNode("case", 20.0),
                ThermalNode("ambient", math.inf),
            ],
            links=[
                ThermalLink("die", "case", 2.0),
                ThermalLink("case", "ambient", 5.0),
            ],
        )
        assert net.steady_state_rise("die", 1.0, "ambient") == pytest.approx(7.0)

    def test_rejects_non_boundary_reference(self):
        net = two_node_network()
        with pytest.raises(ConfigurationError):
            net.steady_state_rise("die", 1.0, "die")


class TestIntrospection:
    def test_node_names(self):
        assert two_node_network().node_names == ("die", "ambient")

    def test_temperatures_snapshot(self):
        temps = two_node_network(initial=30.0).temperatures()
        assert temps == {"die": 30.0, "ambient": 30.0}

    def test_settle_to(self):
        net = two_node_network()
        net.settle_to(42.0)
        assert all(t == 42.0 for t in net.temperatures().values())

    def test_unknown_node_lookup(self):
        with pytest.raises(ConfigurationError):
            two_node_network().temperature("gpu")


class TestFresh:
    """``fresh`` copies share the topology and evolve independently."""

    @pytest.mark.parametrize("solver", ["euler", "expm"])
    def test_copy_steps_like_a_built_network(self, solver):
        template = ThermalNetwork(
            nodes=[ThermalNode("a", 10.0), ThermalNode("b", 4.0),
                   ThermalNode("amb", math.inf)],
            links=[ThermalLink("a", "b", 2.0), ThermalLink("b", "amb", 5.0)],
            solver=solver,
        )
        built = ThermalNetwork(
            nodes=[ThermalNode("a", 10.0), ThermalNode("b", 4.0),
                   ThermalNode("amb", math.inf)],
            links=[ThermalLink("a", "b", 2.0), ThermalLink("b", "amb", 5.0)],
            initial_temp_c=31.0,
            solver=solver,
        )
        copy = template.fresh(31.0)
        # The template's state is its own.
        template.step_vector(power_vector(template, {"a": 9.0}), 0.5)
        assert copy.temperatures() == built.temperatures()
        power = power_vector(built, {"a": 2.0})
        for _ in range(5):
            copy.step_vector(power, 0.1)
            built.step_vector(power, 0.1)
        assert copy.temperatures() == built.temperatures()
        assert copy._conductance is template._conductance
        assert copy._temps is not template._temps
        if solver == "expm":
            assert copy.propagator is not template.propagator
            assert copy.propagator._shared is template.propagator._shared

    def test_spec_builds_share_one_template(self):
        from repro.device.catalog import device_spec

        spec = device_spec("Nexus 5").thermal
        first = spec.build(30.0, solver="expm")
        second = spec.build(25.0, solver="expm")
        assert first is not second
        assert first._capacity is second._capacity
        assert first.temperatures()["cpu"] == 30.0
        assert second.temperatures()["cpu"] == 25.0
        first.step_vector(power_vector(first, {"cpu": 3.0}), 0.1)
        assert second.temperatures()["cpu"] == 25.0
