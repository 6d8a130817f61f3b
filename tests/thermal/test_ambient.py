"""Ambient-temperature profiles."""

from repro.thermal.ambient import ConstantAmbient


class TestConstant:
    def test_constant(self):
        profile = ConstantAmbient(26.0)
        assert profile.temperature(0.0) == 26.0
        assert profile.temperature(1e6) == 26.0
