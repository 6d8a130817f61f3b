"""Speed and voltage binning."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.silicon.binning import (
    VoltageBinner,
    assign_bin_index,
    bin_profile,
    bin_slice_vth,
    required_voltage,
)
from repro.silicon.process import PROCESS_28NM_LP
from repro.silicon.transistor import SiliconProfile


class TestRequiredVoltage:
    def test_nominal_die_needs_nominal_voltage(self):
        assert required_voltage(PROCESS_28NM_LP, 1.0, 0.0) == pytest.approx(1.0)

    def test_slow_die_needs_more(self):
        assert required_voltage(PROCESS_28NM_LP, 1.0, +0.03) > 1.0

    def test_fast_die_needs_less(self):
        assert required_voltage(PROCESS_28NM_LP, 1.0, -0.03) < 1.0

    def test_extreme_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            required_voltage(PROCESS_28NM_LP, 0.5, -10.0)


@pytest.fixture
def binner() -> VoltageBinner:
    return VoltageBinner(
        process=PROCESS_28NM_LP,
        frequencies_mhz=(300.0, 960.0, 2265.0),
        nominal_voltages_v=(0.78, 0.85, 1.02),
        bin_count=7,
    )


class TestVoltageBinner:
    def test_table_has_requested_bins(self, binner):
        assert binner.table().bin_count == 7

    def test_table_satisfies_invariants(self, binner):
        # Construction of VoltageFrequencyTable validates monotonicity in
        # both axes; reaching here without raising is the assertion.
        table = binner.table()
        assert table.frequencies_mhz == (300.0, 960.0, 2265.0)

    def test_bin0_voltages_highest(self, binner):
        table = binner.table()
        assert table.row_mv(0)[-1] == max(
            table.row_mv(b)[-1] for b in range(table.bin_count)
        )

    def test_voltages_quantized_to_5mv(self, binner):
        for row in binner.table().voltages_mv:
            for voltage in row:
                assert voltage % 5.0 == 0.0

    def test_spread_resembles_table1(self, binner):
        # Paper Table I: ~150 mV between bin-0 and bin-6 at top frequency.
        table = binner.table()
        spread = table.row_mv(0)[-1] - table.row_mv(6)[-1]
        assert 80.0 <= spread <= 320.0

    # Dies are assigned with the same slicing the table uses.
    def test_assign_nominal_die_to_middle(self, binner):
        nominal = SiliconProfile.nominal()
        assert assign_bin_index(PROCESS_28NM_LP, binner.bin_count, nominal) == 3

    def test_assign_slow_die_to_bin0(self, binner):
        slow = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, +0.08)
        assert assign_bin_index(PROCESS_28NM_LP, binner.bin_count, slow) == 0

    def test_assign_fast_die_to_last_bin(self, binner):
        fast = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, -0.08)
        assert assign_bin_index(PROCESS_28NM_LP, binner.bin_count, fast) == 6

    @given(st.floats(min_value=-0.06, max_value=0.06))
    def test_assignment_monotone_in_vth(self, delta):
        profile = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, delta)
        faster = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, delta - 0.01)
        assert assign_bin_index(PROCESS_28NM_LP, 7, faster) >= assign_bin_index(
            PROCESS_28NM_LP, 7, profile
        )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            VoltageBinner(
                process=PROCESS_28NM_LP,
                frequencies_mhz=(300.0, 960.0),
                nominal_voltages_v=(0.78,),
            )


class TestBinSlices:
    def test_midpoint_of_middle_bin_is_nominal(self):
        vth = bin_slice_vth(PROCESS_28NM_LP, bin_count=7, bin_index=3, fraction=0.5)
        assert vth == pytest.approx(0.0, abs=1e-12)

    def test_bin0_is_slowest(self):
        vth0 = bin_slice_vth(PROCESS_28NM_LP, 7, 0)
        vth6 = bin_slice_vth(PROCESS_28NM_LP, 7, 6)
        assert vth0 > 0 > vth6

    def test_fraction_moves_toward_fast_edge(self):
        slow_edge = bin_slice_vth(PROCESS_28NM_LP, 7, 2, fraction=0.0)
        fast_edge = bin_slice_vth(PROCESS_28NM_LP, 7, 2, fraction=1.0)
        assert slow_edge > fast_edge

    def test_bin_profile_round_trip(self):
        for bin_index in range(7):
            profile = bin_profile(PROCESS_28NM_LP, 7, bin_index)
            assert assign_bin_index(PROCESS_28NM_LP, 7, profile) == bin_index

    def test_bad_bin_rejected(self):
        with pytest.raises(ConfigurationError):
            bin_slice_vth(PROCESS_28NM_LP, 7, 7)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            bin_slice_vth(PROCESS_28NM_LP, 7, 0, fraction=1.5)


class TestAssignBinIndex:
    def test_out_of_span_clamps(self):
        very_fast = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, -0.1)
        assert assign_bin_index(PROCESS_28NM_LP, 7, very_fast) == 6

    def test_single_bin(self):
        assert assign_bin_index(PROCESS_28NM_LP, 1, SiliconProfile.nominal()) == 0
