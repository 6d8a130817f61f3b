"""ACCUBENCH: the paper's methodology and analysis (its core contribution).

The protocol (warmup → cooldown-to-target → fixed-duration workload), the
two experiment types (UNCONSTRAINED performance, FIXED-FREQUENCY energy),
the campaign runner that reproduces the paper's study design, and the
analysis/reporting layer that turns raw iterations into the paper's tables
and figures.
"""

from repro.core.analysis import (
    energy_variation,
    normalize,
    performance_variation,
    relative_standard_deviation,
)
from repro.core.config import AccubenchConfig
from repro.core.experiments import (
    FIXED_FREQUENCY,
    UNCONSTRAINED,
    ExperimentSpec,
    fixed_frequency,
    unconstrained,
)
from repro.core.ambient_estimation import (
    AmbientEstimate,
    cooldown_probe,
    estimate_ambient,
)
from repro.core.clustering import ClusterResult, choose_k, kmeans, silhouette_score
from repro.core.crowd import (
    CrowdConfig,
    Submission,
    UserSample,
    average_ranks,
    passes_strict_filters,
    silicon_ranking_quality,
    spearman_rank_correlation,
    strict_filters,
)
from repro.core.crowd_stream import (
    CohortResult,
    CrowdEstimators,
    CrowdStreamResult,
    execute_cohort,
    run_streaming_crowd_study,
)
from repro.core.distributions import (
    DistributionSummary,
    PairComparison,
    compare_pair,
    summarize_workload,
)
from repro.core.efficiency import (
    EfficiencyPoint,
    efficiency_point,
    efficiency_series,
    relative_to_first,
    sd805_regression,
)
from repro.core.figure_data import Series, bar_series, export_bundle
from repro.core.lower_bound import (
    expected_variation,
    fleet_size_curve,
    undersampling_factor,
)
from repro.core.protocol import Accubench
from repro.core.ranking import RankedUnit, place_unit, quality_score, rank_units
from repro.core.results import DeviceResult, ExperimentResult, IterationResult
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.core.study import Study, run_study
from repro.core.serialize import experiment_from_dict, experiment_to_dict

__all__ = [
    "Accubench",
    "AccubenchConfig",
    "AmbientEstimate",
    "CampaignConfig",
    "CampaignRunner",
    "ClusterResult",
    "CohortResult",
    "CrowdConfig",
    "CrowdEstimators",
    "CrowdStreamResult",
    "Submission",
    "UserSample",
    "DeviceResult",
    "DistributionSummary",
    "EfficiencyPoint",
    "ExperimentResult",
    "ExperimentSpec",
    "FIXED_FREQUENCY",
    "IterationResult",
    "PairComparison",
    "RankedUnit",
    "Series",
    "Study",
    "UNCONSTRAINED",
    "average_ranks",
    "bar_series",
    "choose_k",
    "compare_pair",
    "cooldown_probe",
    "efficiency_point",
    "efficiency_series",
    "energy_variation",
    "estimate_ambient",
    "execute_cohort",
    "expected_variation",
    "experiment_from_dict",
    "experiment_to_dict",
    "export_bundle",
    "fleet_size_curve",
    "fixed_frequency",
    "kmeans",
    "normalize",
    "passes_strict_filters",
    "performance_variation",
    "place_unit",
    "quality_score",
    "rank_units",
    "relative_standard_deviation",
    "relative_to_first",
    "run_streaming_crowd_study",
    "run_study",
    "sd805_regression",
    "silhouette_score",
    "silicon_ranking_quality",
    "spearman_rank_correlation",
    "strict_filters",
    "summarize_workload",
    "unconstrained",
    "undersampling_factor",
]
