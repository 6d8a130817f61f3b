"""Process-node descriptions."""

import pytest

from repro.errors import ConfigurationError
from repro.silicon.process import (
    PROCESS_14NM_FINFET,
    PROCESS_20NM_PLANAR,
    PROCESS_28NM_LP,
    ProcessNode,
)


class TestCatalog:
    def test_feature_sizes_descend_with_generation(self):
        assert (
            PROCESS_28NM_LP.feature_nm
            > PROCESS_20NM_PLANAR.feature_nm
            > PROCESS_14NM_FINFET.feature_nm
        )

    def test_finfet_leaks_least_with_temperature(self):
        # FinFETs brought leakage back under control: the 14 nm node must
        # have the smallest temperature sensitivity of the three.
        assert PROCESS_14NM_FINFET.leak_temp_slope < PROCESS_28NM_LP.leak_temp_slope
        assert PROCESS_14NM_FINFET.leak_temp_slope < PROCESS_20NM_PLANAR.leak_temp_slope

    def test_finfet_vth_spread_smallest(self):
        assert PROCESS_14NM_FINFET.vth_sigma < PROCESS_28NM_LP.vth_sigma
        assert PROCESS_14NM_FINFET.vth_sigma < PROCESS_20NM_PLANAR.vth_sigma


class TestValidation:
    def _node(self, **overrides):
        base = dict(
            name="test",
            feature_nm=28.0,
            nominal_vdd=1.0,
            vth_sigma=0.02,
            leak_volt_slope=3.0,
            leak_temp_slope=0.02,
            leak_vth_slope=20.0,
            speed_per_vth=2.0,
            volt_per_vth=2.5,
        )
        base.update(overrides)
        return ProcessNode(**base)

    def test_valid_node_constructs(self):
        assert self._node().name == "test"

    def test_zero_feature_rejected(self):
        with pytest.raises(ConfigurationError):
            self._node(feature_nm=0.0)

    def test_negative_vdd_rejected(self):
        with pytest.raises(ConfigurationError):
            self._node(nominal_vdd=-1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            self._node(vth_sigma=-0.01)

    @pytest.mark.parametrize(
        "field", ["leak_volt_slope", "leak_temp_slope", "leak_vth_slope"]
    )
    def test_negative_slopes_rejected(self, field):
        with pytest.raises(ConfigurationError):
            self._node(**{field: -0.1})

    def test_frozen(self):
        node = self._node()
        with pytest.raises(AttributeError):
            node.vth_sigma = 0.5  # type: ignore[misc]
