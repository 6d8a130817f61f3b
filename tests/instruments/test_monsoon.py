"""Monsoon power monitor."""

import pytest

from repro.errors import InstrumentError
from repro.instruments.monsoon import (
    MAX_OUTPUT_V,
    MIN_OUTPUT_V,
    MonsoonPowerMonitor,
)


class TestVoltage:
    def test_configured_voltage_presented(self):
        assert MonsoonPowerMonitor(3.8).output_voltage_v == 3.8

    def test_set_voltage(self):
        monsoon = MonsoonPowerMonitor(3.85)
        monsoon.set_voltage(4.4)
        assert monsoon.output_voltage_v == 4.4

    def test_out_of_range_rejected(self):
        with pytest.raises(InstrumentError):
            MonsoonPowerMonitor(MAX_OUTPUT_V + 0.1)
        with pytest.raises(InstrumentError):
            MonsoonPowerMonitor(MIN_OUTPUT_V - 0.1)


class TestDraw:
    def test_current_is_power_over_voltage(self):
        monsoon = MonsoonPowerMonitor(4.0)
        assert monsoon.draw(2.0, 1.0) == pytest.approx(0.5)

    def test_energy_integration(self):
        monsoon = MonsoonPowerMonitor(4.0)
        for _ in range(10):
            monsoon.draw(3.0, 0.5)
        assert monsoon.energy_drawn_j == pytest.approx(15.0)

    def test_negative_power_rejected(self):
        with pytest.raises(InstrumentError):
            MonsoonPowerMonitor(4.0).draw(-1.0, 1.0)

    def test_zero_dt_rejected(self):
        with pytest.raises(InstrumentError):
            MonsoonPowerMonitor(4.0).draw(1.0, 0.0)

