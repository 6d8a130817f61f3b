"""SoC catalog."""

import pytest

from repro.errors import UnknownModelError
from repro.soc.catalog import (
    SOC_NAMES,
    VoltageMode,
    sd800,
    sd805,
    sd810,
    sd820,
    sd821,
    soc_by_name,
)


class TestCatalogShape:
    def test_all_five_generations(self):
        assert SOC_NAMES == ("SD-800", "SD-805", "SD-810", "SD-820", "SD-821")

    def test_lookup(self):
        assert soc_by_name("SD-800").name == "SD-800"

    def test_unknown_rejected(self):
        with pytest.raises(UnknownModelError):
            soc_by_name("SD-888")

    def test_years_ascend(self):
        years = [soc_by_name(n).year for n in SOC_NAMES]
        assert years == sorted(years)

    @pytest.mark.parametrize(
        "name, builder",
        [("SD-800", sd800), ("SD-805", sd805), ("SD-810", sd810),
         ("SD-820", sd820), ("SD-821", sd821)],
    )
    def test_lookup_is_built_once_and_equals_the_builder(self, name, builder):
        assert soc_by_name(name) is soc_by_name(name)
        assert soc_by_name(name) == builder()


class TestSd800:
    def test_topology(self):
        soc = sd800()
        assert soc.total_cores == 4
        assert len(soc.clusters) == 1
        assert soc.clusters[0].max_freq_mhz == 2265.0

    def test_uses_paper_table1(self):
        soc = sd800()
        assert soc.bin_count == 7
        assert soc.clusters[0].vf_table.voltage_mv(0, 2265.0) == 1100.0

    def test_binned_voltage_mode(self):
        assert sd800().voltage_mode is VoltageMode.BINNED

    def test_28nm(self):
        assert sd800().process.feature_nm == 28.0


class TestSd805:
    def test_higher_clock_than_sd800(self):
        assert sd805().clusters[0].max_freq_mhz == 2649.0

    def test_still_binned_and_28nm(self):
        soc = sd805()
        assert soc.voltage_mode is VoltageMode.BINNED
        assert soc.process.feature_nm == 28.0
        assert soc.bin_count == 7

    def test_generated_table_resembles_table1_structure(self):
        table = sd805().clusters[0].vf_table
        # Bin voltages drop monotonically with bin index at top frequency.
        top = [table.row_mv(b)[-1] for b in range(table.bin_count)]
        assert top == sorted(top, reverse=True)


class TestSd810:
    def test_big_little(self):
        soc = sd810()
        assert soc.total_cores == 8
        names = [c.name for c in soc.clusters]
        assert names == ["a57", "a53"]

    def test_adaptive_voltage(self):
        assert sd810().voltage_mode is VoltageMode.ADAPTIVE

    def test_single_exposed_bin(self):
        # "All our devices reported being on 'speed-bin 0'" (paper IV-A2).
        assert sd810().bin_count == 1

    def test_little_cores_weaker(self):
        soc = sd810()
        a57, a53 = soc.clusters
        assert a53.ipc < a57.ipc
        assert a53.c_eff_f < a57.c_eff_f


class TestKryoGenerations:
    def test_sd820_topology(self):
        soc = sd820()
        assert soc.total_cores == 4
        assert [c.core_count for c in soc.clusters] == [2, 2]

    def test_sd821_is_refined_sd820(self):
        g820, g821 = sd820(), sd821()
        assert g821.process is g820.process
        # The respin is slightly more efficient: lower capacitance/leakage.
        assert g821.clusters[0].c_eff_f < g820.clusters[0].c_eff_f
        assert g821.clusters[0].leak_ref_w < g820.clusters[0].leak_ref_w

    def test_14nm(self):
        assert sd820().process.feature_nm == 14.0
        assert sd821().process.feature_nm == 14.0

    def test_core_count_reduced_from_sd810(self):
        # Paper IV-A3: "a reduction in core count from the SD-810's
        # octa-core CPU possibly due to ... thermal throttling".
        assert sd820().total_cores < sd810().total_cores
