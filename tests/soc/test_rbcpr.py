"""RBCPR adaptive voltage."""

import pytest

from repro.errors import ConfigurationError
from repro.silicon.process import PROCESS_20NM_PLANAR
from repro.silicon.transistor import SiliconProfile
from repro.soc.rbcpr import RbcprBlock


@pytest.fixture
def block() -> RbcprBlock:
    return RbcprBlock(process=PROCESS_20NM_PLANAR)


class TestMargin:
    def test_full_margin_at_reference(self, block):
        assert block.margin_mv(block.reference_temp_c) == block.base_margin_mv

    def test_margin_shrinks_with_heat(self, block):
        assert block.margin_mv(60.0) < block.margin_mv(30.0)

    def test_margin_floor(self, block):
        assert block.margin_mv(500.0) == block.min_margin_mv

    def test_margin_not_raised_below_reference(self, block):
        assert block.margin_mv(0.0) == block.base_margin_mv


def adjust_v(block, profile, die_temp_c):
    return block.voltage_adjust_v(block.compensation_v(profile), die_temp_c)


class TestVoltageAdjust:
    def test_nominal_die_gets_margin_only(self, block):
        adjust = adjust_v(block, SiliconProfile.nominal(), 25.0)
        assert adjust == pytest.approx(block.base_margin_mv / 1000.0)

    def test_slow_die_gets_more_voltage(self, block):
        slow = SiliconProfile.from_vth_delta(PROCESS_20NM_PLANAR, +0.02)
        fast = SiliconProfile.from_vth_delta(PROCESS_20NM_PLANAR, -0.02)
        assert adjust_v(block, slow, 25.0) > adjust_v(block, fast, 25.0)

    def test_compensation_is_partial(self, block):
        # The loop recovers only part of the ideal compensation: the
        # difference between two dies must be compensation_factor x the
        # full volt_per_vth swing.
        slow = SiliconProfile.from_vth_delta(PROCESS_20NM_PLANAR, +0.02)
        fast = SiliconProfile.from_vth_delta(PROCESS_20NM_PLANAR, -0.02)
        swing = adjust_v(block, slow, 25.0) - adjust_v(block, fast, 25.0)
        ideal = PROCESS_20NM_PLANAR.volt_per_vth * 0.04
        assert swing == pytest.approx(block.compensation_factor * ideal)

    def test_hot_die_voltage_drops(self, block):
        nominal = SiliconProfile.nominal()
        assert adjust_v(block, nominal, 80.0) < adjust_v(block, nominal, 25.0)


class TestValidation:
    def test_bad_compensation_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            RbcprBlock(process=PROCESS_20NM_PLANAR, compensation_factor=1.5)

    def test_min_margin_above_base_rejected(self):
        with pytest.raises(ConfigurationError):
            RbcprBlock(
                process=PROCESS_20NM_PLANAR, base_margin_mv=20.0, min_margin_mv=30.0
            )

    def test_negative_recovery_rejected(self):
        with pytest.raises(ConfigurationError):
            RbcprBlock(process=PROCESS_20NM_PLANAR, margin_recovery_mv_per_c=-0.1)
