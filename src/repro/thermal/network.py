"""Lumped-parameter (RC) thermal networks.

A :class:`ThermalNetwork` is a set of nodes with heat capacities joined by
thermal resistances.  Boundary nodes (infinite capacity) hold a forced
temperature — the ambient, or a thermal chamber's air.  Heat flows follow

    C_i · dT_i/dt = P_i + Σ_j (T_j − T_i) / R_ij

integrated by a pluggable solver: explicit Euler with automatic
sub-stepping for stability (:mod:`repro.thermal.integrator`, the default)
or the exact zero-order-hold matrix-exponential propagator
(:mod:`repro.thermal.propagator`, ``solver="expm"``).
:meth:`ThermalNetwork.fresh` copies a network's topology at a new uniform
temperature, sharing every array that never changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.thermal.integrator import StableEuler
from repro.thermal.propagator import ExpmPropagator

#: Accepted ``ThermalNetwork`` solver names.
SOLVERS = ("euler", "expm")


@dataclass(frozen=True)
class ThermalNode:
    """One thermal mass.

    Attributes
    ----------
    name:
        Unique node name, e.g. ``"cpu"`` or ``"case"``.
    heat_capacity:
        Heat capacity in J/K.  ``math.inf`` marks a boundary node whose
        temperature is externally forced (ambient air, chamber air).
    """

    name: str
    heat_capacity: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("node name must be non-empty")
        if not (self.heat_capacity > 0):
            raise ConfigurationError(
                f"node {self.name!r}: heat_capacity must be positive (or inf)"
            )

    @property
    def is_boundary(self) -> bool:
        """True if this node's temperature is externally forced."""
        return math.isinf(self.heat_capacity)


@dataclass(frozen=True)
class ThermalLink:
    """A thermal resistance between two nodes.

    Attributes
    ----------
    node_a, node_b:
        Names of the joined nodes.
    resistance:
        Thermal resistance in K/W, strictly positive.
    """

    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ConfigurationError("a link cannot join a node to itself")
        if self.resistance <= 0:
            raise ConfigurationError("link resistance must be positive")

    @property
    def conductance(self) -> float:
        """Thermal conductance in W/K."""
        return 1.0 / self.resistance


class ThermalNetwork:
    """A mutable thermal state over a fixed node/link topology."""

    def __init__(
        self,
        nodes: Iterable[ThermalNode],
        links: Iterable[ThermalLink],
        initial_temp_c: float = 25.0,
        initial_temps_c: Optional[Mapping[str, float]] = None,
        solver: str = "euler",
    ) -> None:
        if solver not in SOLVERS:
            raise ConfigurationError(
                f"unknown solver {solver!r}; choose one of {', '.join(SOLVERS)}"
            )
        self._nodes: Tuple[ThermalNode, ...] = tuple(nodes)
        if not self._nodes:
            raise ConfigurationError("a network needs at least one node")
        names = [node.name for node in self._nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("node names must be unique")
        self._index: Dict[str, int] = {name: i for i, name in enumerate(names)}

        size = len(self._nodes)
        conductance = np.zeros((size, size))
        self._links: Tuple[ThermalLink, ...] = tuple(links)
        for link in self._links:
            for endpoint in (link.node_a, link.node_b):
                if endpoint not in self._index:
                    raise ConfigurationError(
                        f"link references unknown node {endpoint!r}"
                    )
            a, b = self._index[link.node_a], self._index[link.node_b]
            conductance[a, b] += link.conductance
            conductance[b, a] += link.conductance
        self._conductance = conductance
        self._row_conductance = conductance.sum(axis=1)

        self._capacity = np.array([node.heat_capacity for node in self._nodes])
        self._boundary = np.array([node.is_boundary for node in self._nodes])
        if not self._boundary.any():
            raise ConfigurationError(
                "a network needs at least one boundary (infinite-capacity) node"
            )
        # Plain ints: zeroing a boundary rate by scalar index is several
        # times cheaper than a boolean-mask write on every Euler sub-step.
        self._boundary_indices: Tuple[int, ...] = tuple(
            int(i) for i in np.flatnonzero(self._boundary)
        )

        self._temps = np.full(size, float(initial_temp_c))
        if initial_temps_c:
            for name, temp in initial_temps_c.items():
                self.set_temperature(name, temp)

        self._power_scratch = np.zeros(size)
        self._rate_scratch = np.empty(size)
        self._inflow_scratch = np.empty(size)

        finite = ~self._boundary
        with np.errstate(divide="ignore"):
            rates = np.where(
                finite & (self._row_conductance > 0),
                self._row_conductance / self._capacity,
                0.0,
            )
        self._max_rate = float(rates.max())
        self._integrator = StableEuler(max_rate=self._max_rate)
        self._solver = solver
        self._propagator: Optional[ExpmPropagator] = (
            ExpmPropagator(self._conductance, self._capacity, self._boundary)
            if solver == "expm"
            else None
        )

    def fresh(self, initial_temp_c: float = 25.0) -> "ThermalNetwork":
        """A new network over this topology, uniformly at ``initial_temp_c``.

        The copy shares everything that never changes after construction:
        nodes, links, node index, the conductance, capacity and boundary
        arrays and, under ``expm``, the propagator's shared decomposition.
        It gets its own temperatures, scratch buffers, integrator and
        propagator, so it evolves independently, exactly as a network
        built from the same nodes and links would.
        """
        clone = object.__new__(ThermalNetwork)
        clone.__dict__.update(self.__dict__)
        size = self._temps.size
        clone._temps = np.full(size, float(initial_temp_c))
        clone._power_scratch = np.zeros(size)
        clone._rate_scratch = np.empty(size)
        clone._inflow_scratch = np.empty(size)
        clone._integrator = StableEuler(max_rate=self._max_rate)
        if self._propagator is not None:
            clone._propagator = ExpmPropagator(
                self._conductance, self._capacity, self._boundary
            )
        return clone

    @property
    def solver(self) -> str:
        """The active solver name (``"euler"`` or ``"expm"``)."""
        return self._solver

    @property
    def is_exact(self) -> bool:
        """True if a step of *any* size is an exact ZOH propagation —
        what the engine's sleep fast-forward requires."""
        return self._propagator is not None

    @property
    def propagator(self) -> Optional[ExpmPropagator]:
        """The exact propagator, when the ``expm`` solver is active."""
        return self._propagator

    @property
    def node_names(self) -> Tuple[str, ...]:
        """Node names in index order."""
        return tuple(node.name for node in self._nodes)

    @property
    def links(self) -> Tuple[ThermalLink, ...]:
        """The network's links."""
        return self._links

    def temperature(self, name: str) -> float:
        """Current temperature of a node, °C."""
        return float(self._temps[self._node_index(name)])

    def node_index(self, name: str) -> int:
        """Stable index of a node, for the ``*_at`` fast-path accessors."""
        return self._node_index(name)

    def temperature_at(self, index: int) -> float:
        """Current temperature of the node at ``index``, °C."""
        return float(self._temps[index])

    def set_temperature_at(self, index: int, temp_c: float) -> None:
        """Force the temperature of the node at ``index`` (fast path)."""
        self._temps[index] = temp_c

    def temperatures(self) -> Dict[str, float]:
        """Snapshot of all node temperatures, °C."""
        return {node.name: float(t) for node, t in zip(self._nodes, self._temps)}

    def set_temperature(self, name: str, temp_c: float) -> None:
        """Force a node's temperature (used for boundary nodes and resets)."""
        self._temps[self._node_index(name)] = float(temp_c)

    def settle_to(self, temp_c: float) -> None:
        """Force every node to one temperature (long idle soak shortcut)."""
        self._temps[:] = float(temp_c)

    def step(self, powers_w: Mapping[str, float], dt: float) -> None:
        """Advance the network by ``dt`` seconds with the given heat inputs.

        ``powers_w`` maps node names to injected power in watts; omitted
        nodes receive none.  Boundary node temperatures are left untouched.
        """
        if dt <= 0:
            raise SimulationError("dt must be positive")
        power = self._power_scratch
        power[:] = 0.0
        for name, watts in powers_w.items():
            index = self._node_index(name)
            if self._boundary[index]:
                raise SimulationError(
                    f"cannot inject power into boundary node {name!r}"
                )
            power[index] = watts
        self.step_vector(power, dt)

    def injection_indices(self, names: Iterable[str]) -> Tuple[int, ...]:
        """Validated node indices for repeated injection via :meth:`step_vector`.

        Resolves names and rejects boundary nodes once, so per-step callers
        can skip both checks.
        """
        indices = tuple(self._node_index(name) for name in names)
        for name, index in zip(names, indices):
            if self._boundary[index]:
                raise SimulationError(
                    f"cannot inject power into boundary node {name!r}"
                )
        return indices

    def step_vector(self, power_w: np.ndarray, dt: float) -> None:
        """Advance ``dt`` seconds with a full-size injected-power vector.

        The hot-loop variant of :meth:`step`: ``power_w`` is indexed by node
        (see :meth:`injection_indices`) and must be zero at boundary nodes.
        No per-call name resolution or allocation.
        """
        if dt <= 0:
            raise SimulationError("dt must be positive")
        propagator = self._propagator
        if propagator is not None:
            propagator.advance(self._temps, power_w, dt)
        else:
            self._integrator.advance(self._derivative, self._temps, power_w, dt)

    def _derivative(self, temps: np.ndarray, power: np.ndarray) -> np.ndarray:
        # Same arithmetic as `(power + (G@T - rowG*T)) / C`, evaluated into
        # scratch buffers to keep the per-step path allocation-free.  For
        # this C-contiguous matrix-vector product `ndarray.dot` reaches the
        # same BLAS gemv call as `np.matmul`, at a fraction of the dispatch
        # cost (tests/sim/test_step_bits.py pins the bits).
        rate = self._rate_scratch
        inflow = self._inflow_scratch
        self._conductance.dot(temps, rate)
        np.multiply(self._row_conductance, temps, out=inflow)
        np.subtract(rate, inflow, out=rate)
        np.add(power, rate, out=rate)
        np.divide(rate, self._capacity, out=rate)
        for index in self._boundary_indices:
            rate[index] = 0.0
        return rate

    def steady_state_rise(self, node: str, watts: float, into: str) -> float:
        """Steady-state temperature rise of ``node`` above boundary ``into``
        for a constant ``watts`` injected at ``node``, °C.

        Computed from the DC solution of the network; useful for calibration
        and for sanity checks in tests.
        """
        index = self._node_index(node)
        boundary_index = self._node_index(into)
        if not self._boundary[boundary_index]:
            raise ConfigurationError(f"{into!r} is not a boundary node")
        finite = np.flatnonzero(~self._boundary)
        if index not in finite:
            raise ConfigurationError(f"{node!r} is a boundary node")
        laplacian = np.diag(self._row_conductance) - self._conductance
        reduced = laplacian[np.ix_(finite, finite)]
        rhs = np.zeros(len(finite))
        rhs[list(finite).index(index)] = watts
        rise = np.linalg.solve(reduced, rhs)
        return float(rise[list(finite).index(index)])

    def _node_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown node {name!r}; nodes: {', '.join(self._index)}"
            ) from None
