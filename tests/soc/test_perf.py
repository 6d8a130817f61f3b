"""Performance model."""

import pytest

from repro.errors import ConfigurationError
from repro.soc.perf import (
    PI_ITERATION_OPS,
    iterations_from_ops,
    ops_rate,
)


class TestAnchors:
    def test_one_iteration_is_one_second_on_nexus6_core(self):
        # Paper Section III: 4,285 digits take ~1 s at the Nexus 6's top
        # frequency.  One Krait core at 2649 MHz retires exactly one
        # iteration per second.
        assert ops_rate(2649.0, 1.0) == pytest.approx(PI_ITERATION_OPS)


class TestOpsRate:
    def test_linear_in_frequency(self):
        assert ops_rate(2000.0, 1.0) == pytest.approx(2 * ops_rate(1000.0, 1.0))

    def test_linear_in_ipc(self):
        assert ops_rate(1000.0, 1.2) == pytest.approx(1.2 * ops_rate(1000.0, 1.0))

    def test_negative_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            ops_rate(-1.0, 1.0)

    def test_zero_ipc_rejected(self):
        with pytest.raises(ConfigurationError):
            ops_rate(1000.0, 0.0)


class TestIterations:
    def test_round_trip(self):
        assert iterations_from_ops(PI_ITERATION_OPS * 3) == pytest.approx(3.0)

    def test_fractional_iterations(self):
        assert iterations_from_ops(PI_ITERATION_OPS / 2) == pytest.approx(0.5)

    def test_negative_ops_rejected(self):
        with pytest.raises(ConfigurationError):
            iterations_from_ops(-1.0)

    def test_paper_scale_sanity(self):
        # Four Krait cores at 2265 MHz for 300 s: about a thousand
        # iterations -- the scale of the paper's Nexus 5 scores.
        ops = 4 * ops_rate(2265.0, 1.0) * 300.0
        assert 900 < iterations_from_ops(ops) < 1100
