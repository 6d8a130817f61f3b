"""Shared benchmark fixtures: the full-length paper campaign, run once.

The benchmark suite regenerates every table and figure of the paper at
full protocol length (3-minute warmup, 5-minute workload, sensor-polled
cooldown).  The heavy fleet campaign runs once per pytest session and is
shared by the Table II / Figures 6–9 / Figure 13 benches; figure-specific
experiments run inside their own bench.

Iterations per unit default to 3 (the paper ran ≥5); set
``REPRO_BENCH_ITERATIONS`` to override.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

import pytest

from repro.core.config import AccubenchConfig
from repro.core.results import ExperimentResult
from repro.core.runner import CampaignConfig, CampaignRunner

BENCH_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "3"))


def bench_accubench_config(**overrides) -> AccubenchConfig:
    """Full-length paper protocol parameters for benches."""
    params = dict(
        warmup_s=180.0,
        workload_s=300.0,
        cooldown_target_c=38.0,
        cooldown_poll_s=5.0,
        cooldown_timeout_s=2700.0,
        iterations=BENCH_ITERATIONS,
        dt=0.1,
        trace_decimation=10,
    )
    params.update(overrides)
    return AccubenchConfig(**params)


def bench_campaign(**overrides) -> CampaignConfig:
    """Campaign config used across benches (THERMABOX engaged)."""
    params = dict(accubench=bench_accubench_config(), use_thermabox=True)
    params.update(overrides)
    return CampaignConfig(**params)


@pytest.fixture(scope="session")
def runner() -> CampaignRunner:
    """Session-wide campaign runner at paper scale."""
    return CampaignRunner(bench_campaign())


@pytest.fixture(scope="session")
def study(runner) -> Dict[str, Tuple[ExperimentResult, ExperimentResult]]:
    """The whole Table II study: every model, both workloads.

    Shared by the summary/per-SoC/efficiency benches so the fleet campaign
    only runs once per session.
    """
    return runner.run_study()
