"""Explicit integration with sub-stepping."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.thermal.integrator import PLAN_CACHE_SIZE, SAFETY_FACTOR, StableEuler


class TestStableStep:
    def test_max_step_from_rate(self):
        # The stable step is SAFETY_FACTOR * 2 / max_rate = 0.25 s.
        assert StableEuler(max_rate=2.0).plan(1.0) == (4, SAFETY_FACTOR * 1.0)

    def test_zero_rate_means_unbounded_step(self):
        assert StableEuler(max_rate=0.0).plan(1e6) == (1, 1e6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            StableEuler(max_rate=-1.0)


class TestAdvance:
    def test_exponential_decay_accuracy(self):
        # dx/dt = -x; analytic solution exp(-t).
        integrator = StableEuler(max_rate=20.0)  # forces fine sub-steps
        state = np.array([1.0])
        forcing = np.array([0.0])
        integrator.advance(lambda s, f: -s, state, forcing, 1.0)
        assert state[0] == pytest.approx(np.exp(-1.0), rel=0.05)

    def test_stiff_system_remains_stable(self):
        # A rate of 100/s with dt=1 would explode without sub-stepping.
        integrator = StableEuler(max_rate=100.0)
        state = np.array([1.0])
        forcing = np.array([0.0])
        for _ in range(10):
            integrator.advance(lambda s, f: -100.0 * s, state, forcing, 1.0)
        assert abs(state[0]) < 1e-6

    def test_forcing_is_zero_order_hold(self):
        # dx/dt = f with constant f: exact for Euler regardless of steps.
        integrator = StableEuler(max_rate=10.0)
        state = np.array([0.0])
        forcing = np.array([3.0])
        integrator.advance(lambda s, f: f, state, forcing, 2.0)
        assert state[0] == pytest.approx(6.0)

    def test_in_place_mutation(self):
        integrator = StableEuler(max_rate=1.0)
        state = np.array([5.0])
        same = state
        integrator.advance(lambda s, f: f, state, np.array([1.0]), 1.0)
        assert same is state

    def test_non_positive_dt_rejected(self):
        integrator = StableEuler(max_rate=1.0)
        with pytest.raises(ConfigurationError):
            integrator.advance(lambda s, f: s, np.array([1.0]), np.array([0.0]), 0.0)


class TestPlanCache:
    def test_plan_values(self):
        integrator = StableEuler(max_rate=100.0)  # max step 0.005 s
        substeps, h = integrator.plan(1.0)
        assert substeps == 200
        assert h == pytest.approx(1.0 / 200)

    def test_plan_is_memoized(self):
        integrator = StableEuler(max_rate=100.0)
        assert integrator.plan(1.0) is integrator.plan(1.0)

    def test_distinct_dts_distinct_plans(self):
        integrator = StableEuler(max_rate=100.0)
        assert integrator.plan(1.0) != integrator.plan(2.0)

    def test_cache_resets_instead_of_growing(self):
        integrator = StableEuler(max_rate=100.0)
        for i in range(PLAN_CACHE_SIZE * 3):
            integrator.plan(0.1 + i * 1e-4)
        assert len(integrator._plans) <= PLAN_CACHE_SIZE

    def test_unbounded_step_takes_single_substep(self):
        integrator = StableEuler(max_rate=0.0)
        assert integrator.plan(1e6) == (1, 1e6)
