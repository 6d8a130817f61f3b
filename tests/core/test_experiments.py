"""Experiment specifications."""

import pytest

from repro.core.experiments import (
    FIXED_FREQUENCY,
    UNCONSTRAINED,
    ExperimentSpec,
    fixed_frequency,
    unconstrained,
)
from repro.device.catalog import device_spec
from repro.errors import ConfigurationError


class TestUnconstrained:
    def test_factory(self):
        spec = unconstrained()
        assert spec.name == UNCONSTRAINED
        assert spec.fixed_freq_mhz is None

    def test_rejects_fixed_frequency(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name=UNCONSTRAINED, fixed_freq_mhz=960.0)


class TestFixedFrequency:
    def test_uses_device_calibrated_frequency(self):
        spec = fixed_frequency(device_spec("Nexus 5"))
        assert spec.name == FIXED_FREQUENCY
        assert spec.fixed_freq_mhz == 960.0

    def test_override(self):
        spec = fixed_frequency(device_spec("Nexus 5"), freq_mhz=729.0)
        assert spec.fixed_freq_mhz == 729.0

    def test_requires_frequency(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name=FIXED_FREQUENCY)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name=FIXED_FREQUENCY, fixed_freq_mhz=0.0)


class TestValidation:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name="TURBO")
