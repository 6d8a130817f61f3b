"""Acceptance validation: does this build still reproduce the paper?

Runs the calibrated checks of DESIGN.md §5 programmatically — the same
bands the benchmark suite asserts — and reports pass/fail per check.  Used
by ``repro-bench validate`` and handy after touching any calibrated
constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.paper_targets import TABLE2_TARGETS, in_band
from repro.core.results import ExperimentResult
from repro.core.runner import CampaignRunner
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance check.

    Attributes
    ----------
    name:
        What was checked, e.g. ``"Nexus 5 performance variation"``.
    passed:
        Whether the measurement landed in its band.
    measured:
        The measured value.
    expected:
        Human-readable expectation, e.g. ``"0.08..0.22 (paper 0.14)"``.
    """

    name: str
    passed: bool
    measured: float
    expected: str


def _require_targets(models: Sequence[str]) -> None:
    for model in models:
        if model not in TABLE2_TARGETS:
            raise ConfigurationError(
                f"no paper targets for {model!r}; known: {', '.join(TABLE2_TARGETS)}"
            )


def _model_checks(
    model: str, performance: ExperimentResult, energy: ExperimentResult
) -> List[CheckResult]:
    """One model's band checks on its two workload results."""
    target = TABLE2_TARGETS[model]
    checks = [
        CheckResult(
            name=f"{model} performance variation",
            passed=in_band(
                performance.performance_variation, target.performance_band
            ),
            measured=performance.performance_variation,
            expected=(
                f"{target.performance_band[0]:.2f}.."
                f"{target.performance_band[1]:.2f} (paper {target.performance:.2f})"
            ),
        ),
        CheckResult(
            name=f"{model} energy variation",
            passed=in_band(energy.energy_variation, target.energy_band),
            measured=energy.energy_variation,
            expected=(
                f"{target.energy_band[0]:.2f}.."
                f"{target.energy_band[1]:.2f} (paper {target.energy:.2f})"
            ),
        ),
    ]

    fixed_perfs = [d.performance for d in energy.devices]
    fixed_spread = (max(fixed_perfs) - min(fixed_perfs)) / min(fixed_perfs)
    checks.append(
        CheckResult(
            name=f"{model} fixed-frequency perf spread",
            passed=fixed_spread < 0.04,
            measured=fixed_spread,
            expected="< 0.04 (paper ≤ 0.013..0.026)",
        )
    )
    checks.append(
        CheckResult(
            name=f"{model} repeatability RSD",
            passed=performance.mean_performance_rsd < 0.03,
            measured=performance.mean_performance_rsd,
            expected="< 0.03 (paper avg 0.011)",
        )
    )
    return checks


def validate_study(
    runner: CampaignRunner, models: Optional[Sequence[str]] = None
) -> List[CheckResult]:
    """Validate several models (default: all five) from one study dispatch."""
    chosen = list(models) if models else list(TABLE2_TARGETS)
    _require_targets(chosen)
    study = runner.run_study(chosen)
    results: List[CheckResult] = []
    for model in chosen:
        results.extend(_model_checks(model, *study[model]))
    return results


def all_passed(results: Sequence[CheckResult]) -> bool:
    """True if every check passed."""
    return all(check.passed for check in results)


def render_report(results: Sequence[CheckResult]) -> str:
    """Human-readable validation report."""
    lines = []
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"[{status}] {check.name:<42s} measured {check.measured:6.3f}  "
            f"expected {check.expected}"
        )
    passed = sum(1 for c in results if c.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
