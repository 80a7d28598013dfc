"""Benchmark credible miscalibration factors by omitting measured covariates.

Each measured covariate is treated in turn as if it were an unmeasured
selection factor: the odds model is refit without it and the per-row ratio of
full to reduced odds indicates how much calibration that covariate carries.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .propensity import LabeledPool, LogisticConfig, fit_logistic, predict_odds

COVERAGE_LEVELS = (0.9, 0.95, 1.0)
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99, 1.0)


@dataclasses.dataclass(frozen=True)
class OmissionReport:
    """Odds-ratio distribution after omitting one covariate.

    ``suggested_gamma[q]`` is the q-quantile of max(ratio, 1/ratio): the
    miscalibration factor covering that share of the rows. Symmetrization is
    needed because the odds band constrains the ratio on both sides.
    ``ratio_quantiles`` holds that quantile at each of ``SUMMARY_QUANTILES``.
    The fields are the keys, in order, of one ``benchmark-gamma`` report.
    """

    feature: int
    rows_used: int
    suggested_gamma: dict[float, float]
    ratio_quantiles: dict[float, float]


def _check_omission(pool: LabeledPool, rows: str) -> None:
    if pool.dim < 2:
        raise ValueError("need at least two covariates to omit one")
    if rows not in ("all", "trial", "target"):
        raise ValueError("rows must be one of 'all', 'trial', 'target'")


def omitted_covariate_ratios(
    pool: LabeledPool,
    feature: int,
    config: LogisticConfig = LogisticConfig(),
    rows: str = "all",
) -> OmissionReport:
    """Fit the full and the feature-omitted model and summarize the per-row odds ratios.

    ``rows`` restricts the evaluation rows to "trial" (label 1), "target"
    (label 0), or uses the whole pool. ``LabeledPool.drop_feature`` refuses
    a ``feature`` out of range, after the full model's fit.
    """
    _check_omission(pool, rows)
    return _omission_report(pool, fit_logistic(pool, config), feature, config, rows)


def _omission_report(pool, full, feature, config, rows) -> OmissionReport:
    """``omitted_covariate_ratios`` on checked arguments and a fitted full model."""
    reduced = fit_logistic(pool.drop_feature(feature), config)
    if rows == "all":
        mask = np.ones(pool.n, dtype=bool)
    else:
        mask = pool.labels == (1 if rows == "trial" else 0)
    x_eval = pool.x[mask]
    odds_full = predict_odds(full, x_eval)
    odds_reduced = predict_odds(reduced, np.delete(x_eval, feature, axis=1))
    ratios = odds_full / odds_reduced
    sym = np.maximum(ratios, 1.0 / ratios)
    quantiles = {q: float(np.quantile(sym, q)) for q in SUMMARY_QUANTILES}
    return OmissionReport(
        int(feature), int(mask.sum()), {q: quantiles[q] for q in COVERAGE_LEVELS}, quantiles
    )


def benchmark_all(
    pool: LabeledPool, config: LogisticConfig = LogisticConfig(), rows: str = "all"
) -> list[OmissionReport]:
    """One omission report per covariate, all against one fit of the full model."""
    _check_omission(pool, rows)
    full = fit_logistic(pool, config)
    return [_omission_report(pool, full, k, config, rows) for k in range(pool.dim)]
