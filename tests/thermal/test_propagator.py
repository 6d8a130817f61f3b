"""Exact ZOH propagation: equivalence with Euler, stiffness, caching."""

import math

import numpy as np
import pytest

from repro.check import Tolerance, ToleranceSpec
from repro.errors import ConfigurationError, SimulationError
from repro.thermal.integrator import StableEuler
from repro.thermal.network import ThermalLink, ThermalNetwork, ThermalNode
from repro.thermal.propagator import ExpmPropagator, clear_shared_cache


def power_vector(net, watts=None):
    """A :meth:`ThermalNetwork.step_vector` input: ``watts`` by node name."""
    power = np.zeros(len(net.node_names))
    names = list(watts or {})
    for index, name in zip(net.injection_indices(names), names):
        power[index] = watts[name]
    return power

#: Exact-vs-fine-Euler drift budget per node; the semigroup identity
#: (one macro step == many small steps) is held to numerical noise.
EQUIVALENCE_SPEC = ToleranceSpec(
    name="propagator-equivalence", default=Tolerance(abs_tol=0.05)
)
SEMIGROUP_SPEC = ToleranceSpec(
    name="propagator-semigroup", default=Tolerance(abs_tol=1e-9)
)


def random_topology(rng: np.random.Generator):
    """A random connected network: one boundary node plus 2–6 finite ones.

    Built as a random tree over all nodes (so every finite node has a path
    to the boundary) with a few extra cross links sprinkled in.
    """
    finite_count = int(rng.integers(2, 7))
    nodes = [ThermalNode("amb", math.inf)]
    names = ["amb"]
    for i in range(finite_count):
        name = f"n{i}"
        nodes.append(ThermalNode(name, float(10.0 ** rng.uniform(-0.3, 1.7))))
        names.append(name)
    links = []
    seen = set()
    for i in range(1, len(names)):
        j = int(rng.integers(0, i))
        links.append(
            ThermalLink(names[i], names[j], float(10.0 ** rng.uniform(-1, 1)))
        )
        seen.add((j, i))
    for _ in range(int(rng.integers(0, 3))):
        a, b = sorted(rng.choice(len(names), size=2, replace=False).tolist())
        if (a, b) not in seen:
            seen.add((a, b))
            links.append(
                ThermalLink(names[a], names[b], float(10.0 ** rng.uniform(-1, 1)))
            )
    return nodes, links, names


def build_pair(nodes, links, temps):
    networks = []
    for solver in ("expm", "euler"):
        net = ThermalNetwork(
            nodes=nodes, links=links, initial_temps_c=temps, solver=solver
        )
        networks.append(net)
    return networks


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("dt", [0.1, 1.0, 5.0])
    def test_matches_fine_euler_reference(self, seed, dt):
        rng = np.random.default_rng(seed)
        nodes, links, names = random_topology(rng)
        temps = {name: float(rng.uniform(20.0, 80.0)) for name in names}
        exact, reference = build_pair(nodes, links, temps)
        powers = {
            node.name: float(rng.uniform(0.0, 5.0))
            for node in nodes
            if not node.is_boundary
        }
        power = power_vector(exact, powers)
        exact.step_vector(power, dt)
        # Reference: the same ZOH window, Euler-integrated in 400 chunks
        # (StableEuler sub-divides each chunk further if still too stiff).
        for _ in range(400):
            reference.step_vector(power, dt / 400)
        divergences = EQUIVALENCE_SPEC.compare_mapping(
            exact.temperatures(),
            reference.temperatures(),
            context=f"dt={dt} seed={seed}",
        )
        assert divergences == [], [d.describe() for d in divergences]

    def test_macro_step_equals_many_small_steps(self):
        # The propagator is exact, so stepping is a semigroup: one 10 s
        # step must land exactly where 100 x 0.1 s steps do.
        rng = np.random.default_rng(42)
        nodes, links, names = random_topology(rng)
        temps = {name: float(rng.uniform(20.0, 80.0)) for name in names}
        one, many = build_pair(nodes, links, temps)[0], None
        many = ThermalNetwork(
            nodes=nodes, links=links, initial_temps_c=temps, solver="expm"
        )
        powers = {
            node.name: 2.0 for node in nodes if not node.is_boundary
        }
        power = power_vector(one, powers)
        one.step_vector(power, 10.0)
        for _ in range(100):
            many.step_vector(power, 0.1)
        divergences = SEMIGROUP_SPEC.compare_mapping(
            one.temperatures(), many.temperatures(), context="semigroup"
        )
        assert divergences == [], [d.describe() for d in divergences]

    def test_boundary_temperature_untouched(self):
        rng = np.random.default_rng(7)
        nodes, links, names = random_topology(rng)
        net = ThermalNetwork(nodes=nodes, links=links, solver="expm")
        net.set_temperature("amb", 31.5)
        net.step_vector(power_vector(net), 100.0)
        assert net.temperature("amb") == 31.5

    def test_relaxes_to_dc_solution(self):
        net = ThermalNetwork(
            nodes=[ThermalNode("die", 10.0), ThermalNode("amb", math.inf)],
            links=[ThermalLink("die", "amb", 2.0)],
            initial_temp_c=25.0,
            solver="expm",
        )
        # Many time constants, one step.
        net.step_vector(power_vector(net, {"die": 5.0}), 10000.0)
        assert net.temperature("die") == pytest.approx(35.0, abs=1e-6)


class TestStiffness:
    def test_tiny_capacity_node_stays_exact(self):
        # A near-massless node (a sensor lug) makes the system stiff:
        # Euler's stable sub-step collapses while expm takes one matvec.
        tiny_c, r = 1e-3, 0.1
        net = ThermalNetwork(
            nodes=[ThermalNode("lug", tiny_c), ThermalNode("amb", math.inf)],
            links=[ThermalLink("lug", "amb", r)],
            initial_temps_c={"lug": 80.0, "amb": 25.0},
            solver="expm",
        )
        dt = 5.0
        net.step_vector(power_vector(net, {"lug": 2.0}), dt)
        # Analytic: tau = r*c = 1e-4 s << dt, so the node sits at DC.
        assert net.temperature("lug") == pytest.approx(25.0 + 2.0 * r, abs=1e-9)

    def test_euler_substep_count_explodes_where_expm_does_not(self):
        tiny_c, r = 1e-3, 0.1
        rate = (1.0 / r) / tiny_c
        integrator = StableEuler(max_rate=rate)
        substeps, _ = integrator.plan(5.0)
        assert substeps > 10_000  # the cost expm eliminates
        propagator = ExpmPropagator(
            conductance=np.array([[0.0, 1.0 / r], [1.0 / r, 0.0]]),
            capacity=np.array([tiny_c, math.inf]),
            boundary=np.array([False, True]),
        )
        temps = np.array([80.0, 25.0])
        propagator.advance(temps, np.array([0.0, 0.0]), 5.0)
        assert temps[0] == pytest.approx(25.0, abs=1e-9)


class TestCache:
    def make(self) -> ExpmPropagator:
        # The (Φ, Ψ) cache is shared process-wide per topology; clear it so
        # each test observes per-instance hit/miss counts from a cold start.
        clear_shared_cache()
        return ExpmPropagator(
            conductance=np.array([[0.0, 0.5], [0.5, 0.0]]),
            capacity=np.array([10.0, math.inf]),
            boundary=np.array([False, True]),
            cache_size=2,
        )

    def test_pair_is_reused_per_dt(self):
        propagator = self.make()
        first = propagator.pair(0.1)
        second = propagator.pair(0.1)
        assert first is second
        assert propagator.cache_hits == 1
        assert propagator.cache_misses == 1

    def test_lru_evicts_oldest(self):
        propagator = self.make()
        pair_a = propagator.pair(0.1)
        propagator.pair(1.0)
        propagator.pair(0.1)      # refresh 0.1 -> 1.0 is now oldest
        propagator.pair(5.0)      # evicts 1.0
        assert propagator.pair(0.1) is pair_a  # still cached
        propagator.pair(1.0)      # rebuilt
        assert propagator.cache_misses == 4

    def test_distinct_dt_distinct_pairs(self):
        propagator = self.make()
        phi_small, _ = propagator.pair(0.1)
        phi_large, _ = propagator.pair(10.0)
        assert not np.allclose(phi_small, phi_large)

    def test_same_topology_instances_share_pairs(self):
        # A fleet of same-model devices should pay for each (Φ, Ψ) once:
        # the second instance's first pair() call is already a hit.
        first = self.make()
        pair = first.pair(0.1)
        twin = ExpmPropagator(
            conductance=np.array([[0.0, 0.5], [0.5, 0.0]]),
            capacity=np.array([10.0, math.inf]),
            boundary=np.array([False, True]),
            cache_size=2,
        )
        assert twin.pair(0.1) is pair
        assert twin.cache_hits == 1 and twin.cache_misses == 0
        # Per-instance accounting: the first instance saw only its own miss.
        assert first.cache_hits == 0 and first.cache_misses == 1

    def test_pickle_round_trip_reregisters(self):
        import pickle

        propagator = self.make()
        propagator.pair(0.1)
        clone = pickle.loads(pickle.dumps(propagator))
        assert clone.cache_misses == 1  # counters travel with the instance
        # The clone shares this process's cache, so the pair is a hit.
        clone.pair(0.1)
        assert clone.cache_hits == 1


class TestAdvance:
    """``advance`` reads slices where the node sets are contiguous and
    reuses its last pair; both must give the plain gather's bits."""

    @staticmethod
    def reference(propagator, temps, power, dt):
        phi, psi = propagator.pair(dt)
        finite = np.flatnonzero(~propagator._boundary_mask)
        boundary = np.flatnonzero(propagator._boundary_mask)
        forcing = power[finite] + propagator._coupling @ temps[boundary]
        out = temps.copy()
        out[finite] = phi @ temps[finite] + psi @ forcing
        return out

    @pytest.mark.parametrize("boundary_at", [0, 2, 4], ids=["first", "middle", "last"])
    def test_matches_the_gathered_update(self, boundary_at):
        rng = np.random.default_rng(boundary_at)
        size = 5
        conductance = rng.uniform(0.1, 2.0, size=(size, size))
        conductance = np.triu(conductance, 1)
        conductance += conductance.T
        capacity = rng.uniform(1.0, 20.0, size=size)
        capacity[boundary_at] = math.inf
        boundary = np.arange(size) == boundary_at
        propagator = ExpmPropagator(conductance, capacity, boundary)
        temps = rng.uniform(20.0, 80.0, size=size)
        power = np.where(boundary, 0.0, rng.uniform(0.0, 3.0, size=size))
        for dt in (0.1, 0.1, 0.5, 0.1):
            want = self.reference(propagator, temps, power, dt)
            propagator.advance(temps, power, dt)
            assert temps.tobytes() == want.tobytes()

    def test_last_pair_follows_the_step_size(self):
        propagator = TestCache().make()
        temps = np.array([80.0, 25.0])
        power = np.array([1.0, 0.0])
        for dt in (0.1, 0.1, 5.0, 0.1):
            want = self.reference(propagator, temps, power, dt)
            propagator.advance(temps, power, dt)
            assert temps.tobytes() == want.tobytes()
        # Each advance counts one cache lookup, as pair() would.
        assert propagator.cache_hits + propagator.cache_misses == 8
        assert propagator.cache_misses == 2


class TestBatchAdvance:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_serial_rows(self, seed):
        rng = np.random.default_rng(seed)
        nodes, links, names = random_topology(rng)
        net = ThermalNetwork(nodes=nodes, links=links, solver="expm")
        propagator = net.propagator
        units = 6
        temps = rng.uniform(20.0, 80.0, size=(units, len(names)))
        power = np.zeros((units, len(names)))
        boundary = np.array([node.is_boundary for node in nodes])
        power[:, ~boundary] = rng.uniform(0.0, 5.0, size=(units, int((~boundary).sum())))
        batched = temps.copy()
        propagator.advance_batch(batched, power, 0.5)
        for row in range(units):
            serial = temps[row].copy()
            propagator.advance(serial, power[row], 0.5)
            np.testing.assert_allclose(batched[row], serial, rtol=0, atol=1e-9)

    @staticmethod
    def gathered(propagator, temps, power, dt):
        """The row-major update with gathered columns and GEMM coupling."""
        phi, psi = propagator.pair(dt)
        finite = np.flatnonzero(~propagator._boundary_mask)
        boundary = np.flatnonzero(propagator._boundary_mask)
        forcing = power[:, finite] + temps[:, boundary] @ propagator._coupling.T
        out = temps.copy()
        out[:, finite] = temps[:, finite] @ phi.T + forcing @ psi.T
        return out

    @pytest.mark.parametrize("boundary_at", [(0,), (2,), (4,), (1, 3)],
                             ids=["first", "middle", "last", "two"])
    @pytest.mark.parametrize("layout", ["row-major", "node-major"])
    def test_matches_the_gathered_update(self, boundary_at, layout):
        rng = np.random.default_rng(sum(boundary_at))
        size = 5
        conductance = rng.uniform(0.1, 2.0, size=(size, size))
        conductance = np.triu(conductance, 1)
        conductance += conductance.T
        capacity = rng.uniform(1.0, 20.0, size=size)
        boundary = np.isin(np.arange(size), boundary_at)
        capacity[boundary] = math.inf
        propagator = ExpmPropagator(conductance, capacity, boundary)
        for units in (1, 2, 7, 8, 9, 128):
            temps = rng.uniform(20.0, 80.0, size=(units, size))
            power = np.where(boundary, 0.0, rng.uniform(0.0, 3.0, size=(units, size)))
            if layout == "node-major":
                temps = np.ascontiguousarray(temps.T).T
                power = np.ascontiguousarray(power.T).T
            for dt in (0.1, 0.1, 5.0, 0.1):
                want = self.gathered(propagator, temps, power, dt)
                propagator.advance_batch(temps, power, dt)
                assert np.ascontiguousarray(temps).tobytes() == want.tobytes()

    def test_boundary_rows_untouched(self):
        propagator = TestCache().make()
        temps = np.array([[80.0, 25.0], [60.0, 31.0]])
        propagator.advance_batch(temps, np.zeros((2, 2)), 1.0)
        assert temps[0, 1] == 25.0 and temps[1, 1] == 31.0


class TestValidation:
    def test_non_positive_dt_rejected(self):
        propagator = TestCache().make()
        with pytest.raises(SimulationError):
            propagator.pair(0.0)

    def test_needs_boundary(self):
        with pytest.raises(ConfigurationError):
            ExpmPropagator(
                conductance=np.zeros((1, 1)),
                capacity=np.array([1.0]),
                boundary=np.array([False]),
            )

    def test_needs_finite_node(self):
        with pytest.raises(ConfigurationError):
            ExpmPropagator(
                conductance=np.zeros((1, 1)),
                capacity=np.array([math.inf]),
                boundary=np.array([True]),
            )

    def test_bad_cache_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ExpmPropagator(
                conductance=np.array([[0.0, 0.5], [0.5, 0.0]]),
                capacity=np.array([10.0, math.inf]),
                boundary=np.array([False, True]),
                cache_size=0,
            )

    def test_unknown_network_solver_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalNetwork(
                nodes=[ThermalNode("die", 1.0), ThermalNode("amb", math.inf)],
                links=[ThermalLink("die", "amb", 1.0)],
                solver="rk4",
            )

    def test_network_solver_properties(self):
        kwargs = dict(
            nodes=[ThermalNode("die", 1.0), ThermalNode("amb", math.inf)],
            links=[ThermalLink("die", "amb", 1.0)],
        )
        euler = ThermalNetwork(solver="euler", **kwargs)
        expm = ThermalNetwork(solver="expm", **kwargs)
        assert euler.solver == "euler" and not euler.is_exact
        assert euler.propagator is None
        assert expm.solver == "expm" and expm.is_exact
        assert expm.propagator is not None
