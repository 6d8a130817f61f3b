"""Voltage/frequency tables, including the paper's Table I."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.silicon.vf_tables import (
    NEXUS5_BIN_COUNT,
    NEXUS5_VF_FREQUENCIES_MHZ,
    NEXUS5_VF_TABLE_MV,
    VoltageFrequencyTable,
    nexus5_table,
    single_bin_table,
)


class TestTable1Data:
    """The embedded data must match the paper's Table I exactly."""

    def test_seven_bins(self):
        assert NEXUS5_BIN_COUNT == 7

    def test_frequency_anchors(self):
        assert NEXUS5_VF_FREQUENCIES_MHZ == (300.0, 729.0, 960.0, 1574.0, 2265.0)

    def test_bin0_row(self):
        assert NEXUS5_VF_TABLE_MV[0] == (800.0, 835.0, 865.0, 965.0, 1100.0)

    def test_bin6_row(self):
        assert NEXUS5_VF_TABLE_MV[6] == (750.0, 760.0, 790.0, 870.0, 950.0)

    def test_bin3_row(self):
        assert NEXUS5_VF_TABLE_MV[3] == (775.0, 790.0, 820.0, 910.0, 1025.0)

    def test_bin0_highest_voltage_at_top_frequency(self):
        top = [row[-1] for row in NEXUS5_VF_TABLE_MV]
        assert top[0] == max(top)
        assert top[-1] == min(top)


class TestVoltageLookup:
    @pytest.fixture
    def table(self) -> VoltageFrequencyTable:
        return nexus5_table()

    def test_exact_anchor(self, table):
        assert table.voltage_mv(0, 2265.0) == 1100.0
        assert table.voltage_mv(6, 300.0) == 750.0

    def test_interpolation_between_anchors(self, table):
        # Halfway between 960 (865 mV) and 1574 (965 mV) for bin-0.
        mid = (960.0 + 1574.0) / 2
        assert table.voltage_mv(0, mid) == pytest.approx(915.0)

    def test_clamps_below_ladder(self, table):
        assert table.voltage_mv(0, 100.0) == 800.0

    def test_clamps_above_ladder(self, table):
        assert table.voltage_mv(0, 3000.0) == 1100.0

    def test_voltage_v_converts(self, table):
        assert table.voltage_v(0, 2265.0) == pytest.approx(1.1)

    def test_bad_bin_rejected(self, table):
        with pytest.raises(ConfigurationError):
            table.voltage_mv(7, 300.0)
        with pytest.raises(ConfigurationError):
            table.voltage_mv(-1, 300.0)

    @given(st.floats(min_value=300.0, max_value=2265.0))
    def test_interpolation_within_row_bounds(self, freq):
        table = nexus5_table()
        for bin_index in range(table.bin_count):
            row = table.row_mv(bin_index)
            voltage = table.voltage_mv(bin_index, freq)
            assert min(row) <= voltage <= max(row)

    @given(
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=300.0, max_value=2200.0),
    )
    def test_interpolated_voltage_non_decreasing_in_frequency(self, bin_index, freq):
        table = nexus5_table()
        assert table.voltage_mv(bin_index, freq + 60.0) >= table.voltage_mv(
            bin_index, freq
        )

    @given(st.floats(min_value=300.0, max_value=2265.0))
    def test_higher_bins_never_need_more_voltage(self, freq):
        table = nexus5_table()
        voltages = [table.voltage_mv(b, freq) for b in range(table.bin_count)]
        assert voltages == sorted(voltages, reverse=True)


class TestValidation:
    def test_needs_two_anchors(self):
        with pytest.raises(ConfigurationError):
            VoltageFrequencyTable(frequencies_mhz=(300.0,), voltages_mv=((800.0,),))

    def test_frequencies_must_increase(self):
        with pytest.raises(ConfigurationError):
            VoltageFrequencyTable(
                frequencies_mhz=(300.0, 300.0),
                voltages_mv=((800.0, 810.0),),
            )

    def test_row_length_must_match(self):
        with pytest.raises(ConfigurationError):
            VoltageFrequencyTable(
                frequencies_mhz=(300.0, 960.0),
                voltages_mv=((800.0,),),
            )

    def test_row_voltage_must_not_decrease(self):
        with pytest.raises(ConfigurationError):
            VoltageFrequencyTable(
                frequencies_mhz=(300.0, 960.0),
                voltages_mv=((850.0, 800.0),),
            )

    def test_bins_must_not_increase_voltage(self):
        with pytest.raises(ConfigurationError):
            VoltageFrequencyTable(
                frequencies_mhz=(300.0, 960.0),
                voltages_mv=((800.0, 850.0), (810.0, 860.0)),
            )

    def test_needs_a_bin(self):
        with pytest.raises(ConfigurationError):
            VoltageFrequencyTable(frequencies_mhz=(300.0, 960.0), voltages_mv=())


class TestHelpers:
    def test_single_bin_table(self):
        table = single_bin_table((300.0, 960.0), (800.0, 900.0))
        assert table.bin_count == 1
        assert table.voltage_mv(0, 960.0) == 900.0
