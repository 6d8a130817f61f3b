"""Explicit integration with automatic sub-stepping.

Forward Euler on a stiff RC network diverges if the step exceeds the fastest
node's time constant.  :class:`StableEuler` knows the network's maximum rate
(``max_i Σ_j G_ij / C_i``) and silently splits any requested step into enough
sub-steps to stay comfortably inside the stability bound.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Fraction of the theoretical stability limit (2/max_rate) actually used.
SAFETY_FACTOR = 0.25

#: Distinct requested step sizes whose sub-step plans are memoized.
PLAN_CACHE_SIZE = 32


class StableEuler:
    """Forward-Euler integrator with a precomputed stable step size."""

    def __init__(self, max_rate: float) -> None:
        if max_rate < 0:
            raise ConfigurationError("max_rate must be non-negative")
        if max_rate == 0:
            self._max_step = math.inf
        else:
            self._max_step = SAFETY_FACTOR * 2.0 / max_rate
        # The engine requests the same dt millions of times; memoize the
        # (sub-step count, sub-step size) plan instead of re-deriving it.
        self._plans: Dict[float, Tuple[int, float]] = {}
        # Holds each sub-step's increment, so a step allocates nothing.
        self._increment: Optional[np.ndarray] = None

    @property
    def max_stable_step(self) -> float:
        """Largest sub-step the integrator will take, seconds."""
        return self._max_step

    def advance(
        self,
        derivative: Callable[[np.ndarray, np.ndarray], np.ndarray],
        state: np.ndarray,
        forcing: np.ndarray,
        dt: float,
    ) -> None:
        """Integrate ``state`` in place over ``dt`` seconds.

        ``derivative(state, forcing)`` must return d(state)/dt.  ``forcing``
        is held constant across the step (zero-order hold), matching how the
        simulator computes power once per engine step.
        """
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        substeps, h = self._plans.get(dt) or self.plan(dt)
        increment = self._increment
        if increment is None or increment.shape != state.shape:
            increment = self._increment = np.empty_like(state)
        for _ in range(substeps):
            # `state += h * derivative(...)`, without the temporary: the
            # product and the sum are the same two roundings.
            np.multiply(derivative(state, forcing), h, out=increment)
            np.add(state, increment, out=state)

    def plan(self, dt: float) -> Tuple[int, float]:
        """The memoized (sub-step count, sub-step size) pair for ``dt``."""
        plan = self._plans.get(dt)
        if plan is None:
            if len(self._plans) >= PLAN_CACHE_SIZE:
                self._plans.clear()
            substeps = max(1, int(math.ceil(dt / self._max_step)))
            plan = self._plans[dt] = (substeps, dt / substeps)
        return plan
