"""Unit-conversion helpers."""

import pytest

from repro import units


class TestTemperature:
    def test_paper_ambient_constants(self):
        assert units.PAPER_AMBIENT_C == 26.0
        assert units.PAPER_AMBIENT_TOLERANCE_C == 0.5


class TestVoltage:
    def test_mv_to_v(self):
        assert units.mv_to_v(1100.0) == pytest.approx(1.1)

    def test_v_to_mv(self):
        assert units.v_to_mv(0.95) == pytest.approx(950.0)

    def test_round_trip(self):
        assert units.v_to_mv(units.mv_to_v(835.0)) == pytest.approx(835.0)


class TestFrequency:
    def test_mhz_to_hz(self):
        assert units.mhz_to_hz(2265.0) == pytest.approx(2.265e9)


class TestEnergy:
    def test_mwh_to_joules(self):
        assert units.mwh_to_joules(1.0) == pytest.approx(3.6)


class TestTime:
    def test_minutes(self):
        assert units.minutes(5) == 300.0

    def test_fractional_minutes(self):
        assert units.minutes(0.5) == 30.0
