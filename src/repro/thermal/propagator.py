"""Exact zero-order-hold propagation for linear RC networks.

The network ODE is linear:  C·dT/dt = P + G·(T_j − T_i)  with boundary
temperatures forced.  For the reduced (non-boundary) state ``x`` and a
constant input ``u = P_f + G_fb·T_b`` held over a step ``h`` (exactly how
the simulator applies power — one value per engine step), the solution has
the closed form

    x(h) = Φ(h)·x(0) + Ψ(h)·u,   Φ = e^{A h},   Ψ = ∫₀ʰ e^{A s} ds · C⁻¹,

with ``A = −C⁻¹·L_ff`` the reduced thermal Laplacian over capacity.  One
propagation is *exact* for any ``h`` — no stability bound, no sub-stepping
— so an engine step, a chamber sub-step and a whole cooldown poll window
all cost the same two small matvecs.

The pair (Φ, Ψ) depends only on the topology and the step size, so the
decomposition and the per-``dt`` pair cache are shared *process-wide*:
every :class:`ExpmPropagator` built over the same (conductance, capacity,
boundary, cache_size) arrays references one :class:`_SharedDecomposition`.
A fleet of same-model devices therefore pays for one ``eigh`` and one
(Φ, Ψ) build per step size, no matter how many device instances exist —
and the batched fleet engine reuses the very same pair for its stacked
update, which runs node-major (``Φ·Xᵀ``) so every elementwise pass walks
a whole row of units.  The matrix exponential is evaluated through the
symmetrized system ``M = C^{-1/2}·L_ff·C^{-1/2}`` (similar to ``−A``,
and symmetric positive semi-definite), whose stable eigendecomposition
``numpy.linalg.eigh`` provides — no SciPy dependency, and the modal
decay rates it yields are exact.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError

#: Distinct step sizes whose (Φ, Ψ) pairs are kept hot.  Engine dt, chamber
#: sub-steps and the cooldown poll window comfortably fit.
DEFAULT_CACHE_SIZE = 8


def _contiguous(indices: np.ndarray) -> Union[slice, np.ndarray]:
    """``indices`` as a basic slice when they form one ascending run.

    Slicing a vector with it reads the same values as gathering with the
    index array, but as a view: no gather copy, and assigning through it
    is a plain contiguous write instead of a scatter.
    """
    first = int(indices[0])
    if np.array_equal(indices, np.arange(first, first + indices.size)):
        return slice(first, first + indices.size)
    return indices


class _SharedDecomposition:
    """One topology's eigendecomposition plus its (Φ, Ψ) pair cache.

    Keyed process-wide by the raw constructor arrays, so every propagator
    over the same network shares both the spectral data and the per-``dt``
    cache.  Hit/miss accounting stays on the *instances* (each device still
    reports its own ``cache_hit_rate``); the shared object only stores the
    reusable math.
    """

    __slots__ = (
        "finite",
        "boundary",
        "finite_at",
        "boundary_at",
        "coupling_col",
        "coupling",
        "rates",
        "to_modal",
        "from_modal",
        "cache",
        "cache_size",
    )

    def __init__(
        self,
        conductance: np.ndarray,
        capacity: np.ndarray,
        boundary: np.ndarray,
        cache_size: int,
    ) -> None:
        self.finite = np.flatnonzero(~boundary)
        self.boundary = np.flatnonzero(boundary)
        if self.finite.size == 0:
            raise ConfigurationError("propagator needs at least one finite node")
        if self.boundary.size == 0:
            raise ConfigurationError("propagator needs at least one boundary node")

        row = conductance.sum(axis=1)
        laplacian = np.diag(row) - conductance
        reduced = laplacian[np.ix_(self.finite, self.finite)]
        #: G_fb — heat admittance from boundary nodes into finite ones.
        self.coupling = conductance[np.ix_(self.finite, self.boundary)]
        # Vector selectors for ``ExpmPropagator.advance`` (see _contiguous).
        self.finite_at = _contiguous(self.finite)
        self.boundary_at = _contiguous(self.boundary)
        # With one boundary node, G_fb·T_b is a column times a scalar:
        # each entry is the same single product the matvec forms.
        self.coupling_col = (
            np.ascontiguousarray(self.coupling[:, 0])
            if self.boundary.size == 1
            else None
        )

        sqrt_c = np.sqrt(capacity[self.finite])
        sym = reduced / np.outer(sqrt_c, sqrt_c)
        eigenvalues, eigenvectors = np.linalg.eigh(sym)
        # L_ff is PSD, so negative eigenvalues are pure round-off; clipping
        # keeps Φ from growing on a ~1e-18 wobble.
        self.rates = np.clip(eigenvalues, 0.0, None)
        self.to_modal = eigenvectors.T * sqrt_c          # Qᵀ·C^{1/2}
        self.from_modal = eigenvectors / sqrt_c[:, None]  # C^{-1/2}·Q
        self.cache: "OrderedDict[float, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self.cache_size = cache_size


#: Process-level decomposition registry, keyed by the raw topology bytes.
_SHARED: Dict[Tuple[bytes, bytes, bytes, int], _SharedDecomposition] = {}


def _shared_decomposition(
    conductance: np.ndarray,
    capacity: np.ndarray,
    boundary: np.ndarray,
    cache_size: int,
) -> _SharedDecomposition:
    key = (
        conductance.tobytes(),
        capacity.tobytes(),
        boundary.tobytes(),
        cache_size,
    )
    shared = _SHARED.get(key)
    if shared is None:
        shared = _SHARED[key] = _SharedDecomposition(
            conductance, capacity, boundary, cache_size
        )
    return shared


def clear_shared_cache() -> None:
    """Drop every process-level decomposition (test isolation hook).

    Propagators built afterwards recompute their decomposition and start
    from an empty (Φ, Ψ) cache; already-built instances keep referencing
    the shared objects they registered with.
    """
    _SHARED.clear()


class ExpmPropagator:
    """Discrete exact propagator ``T' = Φ·T + Ψ·u`` for one topology.

    Built from the same arrays :class:`~repro.thermal.network.ThermalNetwork`
    assembles: the symmetric conductance matrix (W/K), per-node heat
    capacities (J/K, ``inf`` at boundary nodes) and the boundary mask.
    :meth:`advance` updates the full-size temperature vector in place,
    leaving boundary entries untouched; :meth:`advance_batch` does the same
    for a stacked ``(units, nodes)`` matrix with one GEMM per term.
    """

    def __init__(
        self,
        conductance: np.ndarray,
        capacity: np.ndarray,
        boundary: np.ndarray,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if cache_size < 1:
            raise ConfigurationError("cache_size must be at least 1")
        conductance = np.asarray(conductance, dtype=float)
        capacity = np.asarray(capacity, dtype=float)
        boundary = np.asarray(boundary, dtype=bool)
        # Constructor arrays are kept so pickled propagators re-register
        # against the worker process's shared cache on unpickle.
        self._conductance = conductance
        self._capacity = capacity
        self._boundary_mask = boundary
        self._cache_size = cache_size
        shared = _shared_decomposition(conductance, capacity, boundary, cache_size)
        self._shared = shared
        self._finite = shared.finite
        self._boundary = shared.boundary
        self._coupling = shared.coupling
        self._rates = shared.rates
        self._to_modal = shared.to_modal
        self._from_modal = shared.from_modal
        self._cache = shared.cache
        self._finite_at = shared.finite_at
        self._boundary_at = shared.boundary_at
        self._coupling_col = shared.coupling_col
        self._boundary_node = int(shared.boundary[0])
        # ``advance`` scratch: forcing, Φ·x and Ψ·u.
        finite_count = shared.finite.size
        self._forcing = np.empty(finite_count)
        self._free = np.empty(finite_count)
        self._forced = np.empty(finite_count)
        # The last pair ``advance`` used and its step size: an engine
        # asks for one step size run after run.
        self._last_dt: Optional[float] = None
        self._last_pair: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # ``advance_batch`` scratch (forcing, Φ·x, Ψ·u) for the last row
        # count it was asked to propagate.
        self._batch_rows = 0
        self._batch_scratch: Optional[np.ndarray] = None
        self.cache_hits = 0
        self.cache_misses = 0

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "conductance": self._conductance,
            "capacity": self._capacity,
            "boundary": self._boundary_mask,
            "cache_size": self._cache_size,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(
            state["conductance"],
            state["capacity"],
            state["boundary"],
            state["cache_size"],
        )
        self.cache_hits = state["cache_hits"]
        self.cache_misses = state["cache_misses"]

    @property
    def finite_count(self) -> int:
        """Number of evolving (non-boundary) nodes."""
        return int(self._finite.size)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of :meth:`pair` calls served from the (Φ, Ψ) cache
        (0.0 before the first call).  A healthy run sits near 1.0 — the
        simulator only ever asks for a handful of distinct step sizes, and
        the cache is shared across every same-topology propagator in the
        process, so fleet runs warm it once."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def slowest_time_constant_s(self) -> float:
        """The network's slowest modal time constant, seconds (inf if a
        mode is disconnected from every boundary)."""
        smallest = float(self._rates.min())
        return 1.0 / smallest if smallest > 0 else float("inf")

    def pair(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """The cached discrete pair (Φ, Ψ) for a step of ``dt`` seconds."""
        if dt <= 0:
            raise SimulationError("dt must be positive")
        cache = self._cache
        pair = cache.get(dt)
        if pair is not None:
            cache.move_to_end(dt)
            self.cache_hits += 1
            return pair
        self.cache_misses += 1
        decay = np.exp(-self._rates * dt)
        # φ₁(λ, h) = (1 − e^{−λh})/λ, continuously → h as λ → 0 (a mode
        # with no path to a boundary just integrates its input).
        ramp = np.full_like(self._rates, dt)
        active = self._rates > 0
        ramp[active] = (1.0 - decay[active]) / self._rates[active]
        phi = self._from_modal @ (decay[:, None] * self._to_modal)
        psi = (self._from_modal * ramp) @ self._from_modal.T
        pair = (phi, psi)
        cache[dt] = pair
        if len(cache) > self._cache_size:
            cache.popitem(last=False)
        return pair

    def advance(self, temps: np.ndarray, power: np.ndarray, dt: float) -> None:
        """Propagate the full temperature vector ``dt`` seconds, in place.

        ``power`` is the injected power per node (watts, zero at boundary
        nodes), held constant over the step — the zero-order hold the
        closed form is exact for.
        """
        if dt == self._last_dt:
            # A hit on the pair ``pair(dt)`` returned last time; it skips
            # the shared cache's recency update, which matters only once
            # more step sizes are in use than the cache holds.
            phi, psi = self._last_pair
            self.cache_hits += 1
        else:
            phi, psi = self._last_pair = self.pair(dt)
            self._last_dt = dt
        finite = self._finite_at
        # forcing = P_f + G_fb·T_b and T_f' = Φ·T_f + Ψ·forcing, evaluated
        # into scratch; ``ndarray.dot`` reaches the same BLAS gemv as
        # ``@`` at less dispatch cost (tests/sim/test_step_bits.py pins
        # the bits).
        forcing = self._forcing
        if self._coupling_col is not None:
            np.multiply(self._coupling_col, temps[self._boundary_at], out=forcing)
        else:
            np.matmul(self._coupling, temps[self._boundary_at], out=forcing)
        np.add(power[finite], forcing, out=forcing)
        free = phi.dot(temps[finite], self._free)
        forced = psi.dot(forcing, self._forced)
        if type(finite) is slice:
            np.add(free, forced, out=temps[finite])
        else:
            temps[finite] = free + forced

    def advance_batch(self, temps: np.ndarray, power: np.ndarray, dt: float) -> None:
        """Propagate a stacked ``(units, nodes)`` temperature matrix in place.

        Row ``i`` of ``temps``/``power`` is unit ``i``'s full node vector,
        exactly as :meth:`advance` takes them; all rows share one (Φ, Ψ)
        pair, so the whole fleet advances with two GEMMs instead of
        ``units`` pairs of matvecs.  Results match :meth:`advance` row for
        row up to BLAS summation order (ulp-level).

        The update runs node-major, on the transposed ``(nodes, units)``
        view, with :meth:`advance`'s selectors and last-pair reuse: every
        elementwise pass then walks a whole unit row instead of a handful
        of nodes per unit, and ``Φ·Xᵀ`` forms each entry with the same
        products and sums as ``X·Φᵀ``.  The single-boundary coupling is
        the elementwise product the one-column GEMM forms.  Products land
        in scratch kept for the last row count.
        """
        if dt == self._last_dt:
            phi, psi = self._last_pair
            self.cache_hits += 1
        else:
            phi, psi = self._last_pair = self.pair(dt)
            self._last_dt = dt
        rows = temps.shape[0]
        if self._batch_rows != rows:
            self._batch_rows = rows
            self._batch_scratch = np.empty((3, self._finite.size, rows))
        forcing, free, forced = self._batch_scratch
        finite = self._finite_at
        # forcingᵀ = P_fᵀ + G_fb·T_bᵀ, then T_fᵀ' = Φ·T_fᵀ + Ψ·forcingᵀ.
        if self._coupling_col is not None:
            np.multiply.outer(
                self._coupling_col, temps[:, self._boundary_node], out=forcing
            )
        else:
            np.matmul(self._coupling, temps[:, self._boundary_at].T, out=forcing)
        np.add(power[:, finite].T, forcing, out=forcing)
        np.matmul(phi, temps[:, finite].T, out=free)
        np.matmul(psi, forcing, out=forced)
        if type(finite) is slice:
            np.add(free, forced, out=temps[:, finite].T)
        else:
            temps[:, finite] = (free + forced).T
