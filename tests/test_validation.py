"""Acceptance validation."""

import pytest

from repro.core.runner import CampaignConfig, CampaignRunner
from repro.errors import ConfigurationError
from repro.validation import (
    CheckResult,
    all_passed,
    render_report,
    validate_study,
)


class TestCheckResult:
    def test_fields(self):
        check = CheckResult(
            name="x", passed=True, measured=0.15, expected="0.1..0.2"
        )
        assert check.passed


class TestReport:
    def test_render(self):
        checks = [
            CheckResult("a check", True, 0.15, "0.1..0.2"),
            CheckResult("another", False, 0.5, "< 0.04"),
        ]
        text = render_report(checks)
        assert "[PASS] a check" in text
        assert "[FAIL] another" in text
        assert "1/2 checks passed" in text

    def test_all_passed(self):
        good = [CheckResult("a", True, 0.0, "x")]
        bad = good + [CheckResult("b", False, 0.0, "x")]
        assert all_passed(good)
        assert not all_passed(bad)


class TestValidateModel:
    @pytest.fixture(scope="class")
    def mid_runner(self):
        # Mid-scale protocol: long enough that the calibrated physics
        # expresses itself, short enough for the test suite.
        from repro.core.config import AccubenchConfig

        config = CampaignConfig(
            accubench=AccubenchConfig(
                warmup_s=90.0, workload_s=150.0, cooldown_target_c=38.0,
                cooldown_timeout_s=2400.0, iterations=2, dt=0.25,
                trace_decimation=4,
            ),
            use_thermabox=False,
        )
        return CampaignRunner(config)

    def test_unknown_model_rejected(self, mid_runner):
        with pytest.raises(ConfigurationError):
            validate_study(mid_runner, models=["OnePlus 3T"])

    def test_nexus5_validates(self, mid_runner):
        checks = validate_study(mid_runner, models=["Nexus 5"])
        assert len(checks) == 4
        by_name = {c.name: c for c in checks}
        assert by_name["Nexus 5 performance variation"].passed
        assert by_name["Nexus 5 fixed-frequency perf spread"].passed

    def test_study_subset(self, mid_runner):
        checks = validate_study(mid_runner, models=["Nexus 6"])
        assert len(checks) == 4
        assert all(c.name.startswith("Nexus 6") for c in checks)
