"""Tests for the omitted-covariate miscalibration benchmark."""

import math

import numpy as np
import pytest

from limitcurves.gamma_bench import (
    COVERAGE_LEVELS,
    SUMMARY_QUANTILES,
    benchmark_all,
    omitted_covariate_ratios,
)
from limitcurves.propensity import LabeledPool, LogisticConfig


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def mechanism_pool(n=10000, coef=(1.0, 0.0), seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, len(coef)))
    labels = (rng.random(n) < sigmoid(x @ np.asarray(coef))).astype(int)
    return LabeledPool(x, labels)


class TestOmittedCovariateRatios:
    def test_irrelevant_feature_ratios_near_one(self):
        pool = mechanism_pool(n=10000, coef=(1.0, 0.0), seed=1)
        report = omitted_covariate_ratios(pool, 1, LogisticConfig(l2=1e-6))
        assert report.suggested_gamma[0.95] <= 1.1

    def test_dominant_feature_large_gamma(self):
        pool = mechanism_pool(n=10000, coef=(1.0, 0.0), seed=2)
        report = omitted_covariate_ratios(pool, 0, LogisticConfig(l2=1e-6))
        assert report.suggested_gamma[1.0] > 1.5

    def test_single_feature_rejected(self):
        rng = np.random.default_rng(3)
        pool = LabeledPool(rng.normal(size=(50, 1)), rng.integers(0, 2, 50))
        with pytest.raises(ValueError):
            omitted_covariate_ratios(pool, 0)

    def test_gamma_nondecreasing_in_coverage_and_at_least_one(self):
        pool = mechanism_pool(n=2000, coef=(0.7, 0.3), seed=4)
        report = omitted_covariate_ratios(pool, 0)
        gammas = [report.suggested_gamma[q] for q in (0.9, 0.95, 1.0)]
        assert all(g >= 1.0 for g in gammas)
        assert gammas[0] <= gammas[1] <= gammas[2]
        quantiles = [report.ratio_quantiles[q] for q in SUMMARY_QUANTILES]
        assert all(math.isfinite(v) for v in quantiles)
        assert 1.0 <= quantiles[0] and quantiles == sorted(quantiles)
        assert gammas == [report.ratio_quantiles[q] for q in COVERAGE_LEVELS]

    def test_row_subset_filter(self):
        pool = mechanism_pool(n=2000, coef=(0.7, 0.3), seed=5)
        full = omitted_covariate_ratios(pool, 0, rows="all")
        trial = omitted_covariate_ratios(pool, 0, rows="trial")
        target = omitted_covariate_ratios(pool, 0, rows="target")
        assert trial.rows_used + target.rows_used == full.rows_used == pool.n


class TestBenchmarkAll:
    def test_one_report_per_feature(self):
        pool = mechanism_pool(n=1000, coef=(0.5, 0.5), seed=6)
        reports = benchmark_all(pool)
        assert [r.feature for r in reports] == [0, 1]

    def test_deterministic(self):
        pool = mechanism_pool(n=1000, coef=(0.5, 0.2), seed=7)
        assert benchmark_all(pool) == benchmark_all(pool)

    def test_symmetric_mechanism_agrees_across_features(self):
        pool = mechanism_pool(n=40000, coef=(0.8, 0.8), seed=8)
        reports = benchmark_all(pool, LogisticConfig(l2=1e-6))
        g0 = reports[0].suggested_gamma[0.95]
        g1 = reports[1].suggested_gamma[0.95]
        assert abs(g0 - g1) / max(g0, g1) < 0.1
