"""Certified limit curves for the out-of-sample loss of decision policies.

Trial samples plus covariate-only rows from a target population yield, for any
declared odds-miscalibration factor, an upper limit on the out-of-sample loss
holding with probability at least 1 - alpha. The package also ships the
benchmarking, calibration, and reweighting-baseline tooling around that
construction, plus a synthetic lab that checks the finite-sample guarantee by
Monte Carlo.
"""

from .backend import BACKEND
from .conformal import (
    CalibrationSet,
    LimitCurve,
    LimitPoint,
    WeightBoundSet,
    certify,
    default_alpha_grid,
    default_beta_grid,
    limit,
    limit_curve,
    quantile,
    stand_in_cdf,
    weight_bound,
)
from .data import (
    LabeledPool,
    PolicySpec,
    SplitResult,
    TargetCovariates,
    TrialDataset,
    TrialDesign,
    matched_split,
    random_split,
    validate_dataset,
)
from .gamma_bench import OmissionReport, benchmark_all, omitted_covariate_ratios
from .ipsw import ipsw_cdf, ipsw_quantile, ipsw_value
from .propensity import (
    LogisticConfig,
    LogisticModel,
    ReliabilityBin,
    fit_logistic,
    load_external_scores,
    load_model,
    predict_odds,
    reliability_diagram,
    save_model,
)
from .simlab import (
    POPULATIONS,
    CertifiedMethod,
    IpswMethod,
    MiscoverageReport,
    PopulationParams,
    SimScenario,
    miscoverage_gap,
    sample_target,
    sample_trial,
    scenario,
    true_miscalibration,
    true_odds,
    true_odds_with_u,
)
from .weights import WeightPair, bounded_weights

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CalibrationSet",
    "CertifiedMethod",
    "IpswMethod",
    "LabeledPool",
    "LimitCurve",
    "LimitPoint",
    "LogisticConfig",
    "LogisticModel",
    "MiscoverageReport",
    "OmissionReport",
    "POPULATIONS",
    "PolicySpec",
    "PopulationParams",
    "ReliabilityBin",
    "SimScenario",
    "SplitResult",
    "TargetCovariates",
    "TrialDataset",
    "TrialDesign",
    "WeightBoundSet",
    "WeightPair",
    "benchmark_all",
    "bounded_weights",
    "certify",
    "default_alpha_grid",
    "default_beta_grid",
    "fit_logistic",
    "ipsw_cdf",
    "ipsw_quantile",
    "ipsw_value",
    "limit",
    "limit_curve",
    "load_external_scores",
    "load_model",
    "matched_split",
    "miscoverage_gap",
    "omitted_covariate_ratios",
    "predict_odds",
    "quantile",
    "random_split",
    "reliability_diagram",
    "sample_target",
    "sample_trial",
    "save_model",
    "scenario",
    "stand_in_cdf",
    "true_miscalibration",
    "true_odds",
    "true_odds_with_u",
    "validate_dataset",
    "weight_bound",
]
