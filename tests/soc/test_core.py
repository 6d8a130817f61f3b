"""Per-core runtime state."""

import pytest

from repro.errors import ConfigurationError
from repro.soc.core import CoreState


class TestCoreState:
    def test_defaults(self):
        core = CoreState(index=0)
        assert core.online
        assert core.utilization == 0.0

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreState(index=-1)

    def test_set_utilization(self):
        core = CoreState(index=0)
        core.set_utilization(0.75)
        assert core.utilization == 0.75

    def test_out_of_range_utilization_rejected(self):
        core = CoreState(index=0)
        with pytest.raises(ConfigurationError):
            core.set_utilization(1.5)
        with pytest.raises(ConfigurationError):
            core.set_utilization(-0.1)

    def test_constructor_validates_utilization(self):
        with pytest.raises(ConfigurationError):
            CoreState(index=0, utilization=2.0)
