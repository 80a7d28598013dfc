"""The shared input rules of ``data`` and the exact message at every site
that uses them: an open-interval value, selection odds, covariate rows."""

import math
import re

import numpy as np
import pytest

import limitcurves
import limitcurves.data
import limitcurves.propensity
from limitcurves.cli import parse_alpha_grid, parse_floats
from limitcurves.conformal import (
    CalibrationSet,
    WeightBoundSet,
    check_curve_args,
    default_beta_grid,
    limit,
    limit_curve,
    quantile,
    stand_in_cdf,
    weight_bound,
)
from limitcurves.data import (
    LabeledPool,
    PolicySpec,
    TargetCovariates,
    TrialDataset,
    TrialDesign,
    check_open_unit,
    matched_split,
    random_split,
)
from limitcurves.gamma_bench import benchmark_all
from limitcurves.ipsw import ipsw_cdf, ipsw_quantile, ipsw_value
from limitcurves.propensity import LogisticConfig, load_external_scores, reliability_diagram
from limitcurves.simlab import (
    CertifiedMethod,
    IpswMethod,
    PopulationParams,
    SimScenario,
    miscoverage_gap,
    sample_target,
    sample_trial,
    scenario,
    true_miscalibration,
    true_odds,
)
from limitcurves.weights import bounded_weights, trial_odds

OUTSIDE = [0.0, 1.0, math.nan, -0.5, 1.5, math.inf]
NOT_ODDS = [0.0, -1.0, math.nan, math.inf, -math.inf]


def raises_exactly(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def trial(m=4):
    return TrialDataset(np.zeros((m, 1)), [0, 1] * (m // 2), np.arange(m, dtype=float), 2)


def sets():
    return CalibrationSet.from_shift_weights([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), WeightBoundSet([1.0, 1.0])


def scores_file(tmp_path, kind, value):
    path = tmp_path / "scores.csv"
    path.write_text(f"id,{kind}\n0,0.5\n1,{value!r}\n")
    return path


OPEN_UNIT_SITES = {
    "default_beta_grid": ("alpha", lambda v: default_beta_grid(v)),
    "weight_bound": ("beta", lambda v: weight_bound(sets()[1], v)),
    "limit": ("alpha", lambda v: limit(*sets(), v)),
    "limit_curve": ("alpha grid", lambda v: limit_curve(*sets(), alpha_grid=[0.5, v], l_max=9.0)),
    "ipsw_quantile": (
        "alpha",
        lambda v: ipsw_quantile(trial(), np.ones(4), PolicySpec.uniform(), TrialDesign.uniform(2), 4, v),
    ),
    "miscoverage_gap": (
        "alphas",
        lambda v: miscoverage_gap(scenario("A"), CertifiedMethod(gamma=1.0), [0.5, v], runs=1, per_run=1),
    ),
    "random_split": ("frac", lambda v: random_split(trial(), frac=v)),
    "CertifiedMethod": ("frac", lambda v: CertifiedMethod(gamma=1.0, split="random", split_frac=v)),
}


@pytest.mark.parametrize("value", OUTSIDE)
@pytest.mark.parametrize("site", sorted(OPEN_UNIT_SITES))
def test_open_interval_message_at_each_site(site, value):
    name, call = OPEN_UNIT_SITES[site]
    with raises_exactly(f"{name} must lie strictly inside (0, 1)"):
        call(value)


def test_empty_lists_are_outside_the_open_interval():
    with raises_exactly("alpha grid must lie strictly inside (0, 1)"):
        limit_curve(*sets(), alpha_grid=[], l_max=9.0)
    with raises_exactly("alphas must lie strictly inside (0, 1)"):
        miscoverage_gap(scenario("A"), CertifiedMethod(gamma=1.0), [], runs=1, per_run=1)
    with raises_exactly("x must lie strictly inside (0, 1)"):
        check_open_unit([], "x")
    check_open_unit([1e-300, 0.5, 1 - 1e-16], "x")


@pytest.mark.parametrize("value", [1.0, math.nan, 0.0, math.inf])
def test_p_s1_scores_outside_the_open_interval(tmp_path, value):
    path = scores_file(tmp_path, "p_s1", value)
    with raises_exactly(f"{path}: p_s1 values must lie strictly inside (0, 1)"):
        load_external_scores(path)


ODDS_SITES = {
    "trial_odds": ("odds", lambda v: trial_odds(trial(), [1.0, v, 1.0, 1.0])),
    "bounded_weights": ("odds", lambda v: bounded_weights(v, 1.0, 1.0)),
    "true_miscalibration": (
        "model odds",
        lambda v: true_miscalibration(np.zeros((2, 2)), np.zeros(2), [1.0, v], scenario("A")),
    ),
}


@pytest.mark.parametrize("value", NOT_ODDS)
@pytest.mark.parametrize("site", sorted(ODDS_SITES))
def test_odds_message_at_each_site(site, value):
    name, call = ODDS_SITES[site]
    with raises_exactly(f"{name} must be strictly positive and finite"):
        call(value)


@pytest.mark.parametrize("value", NOT_ODDS)
def test_odds_scores_refused(tmp_path, value):
    path = scores_file(tmp_path, "odds", value)
    with raises_exactly(f"{path}: odds must be strictly positive and finite"):
        load_external_scores(path)


class TestLabeledPool:
    def test_one_class_everywhere(self):
        assert limitcurves.data.LabeledPool is limitcurves.propensity.LabeledPool
        assert limitcurves.LabeledPool is LabeledPool

    def test_rows_checked_like_the_other_containers(self):
        with raises_exactly("pool covariates must be a 2-d array of covariate rows"):
            LabeledPool([0.0, 1.0], [0, 1])
        with raises_exactly("pool covariates must contain at least one row"):
            LabeledPool(np.empty((0, 2)), [])
        with raises_exactly("pool covariates must be finite"):
            LabeledPool([[0.0], [np.nan]], [0, 0])


CONTAINERS = {
    "trial covariates": lambda x: TrialDataset(x, [0] * len(x), [1.0] * len(x), k_actions=1),
    "target covariates": TargetCovariates,
    "pool covariates": lambda x: LabeledPool(x, [0, 1, 0, 1][: len(x)]),
}


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_zero_covariate_columns_refused(name):
    with raises_exactly(f"{name} must have at least one covariate column"):
        CONTAINERS[name](np.zeros((4, 0)))


@pytest.mark.parametrize(
    "labels, message",
    [
        ([1, 1, 1, 1], "pool must contain both target and trial rows"),
        ([0, 0, 0, 0], "pool must contain both target and trial rows"),
        ([0, 2, 1, 0], "labels must be 0 (target) or 1 (trial)"),
    ],
)
def test_one_label_rule_for_the_pool_and_the_reliability_diagram(labels, message):
    with raises_exactly(message):
        LabeledPool(np.zeros((4, 1)), labels)
    with raises_exactly(message):
        reliability_diagram(np.ones(4), labels)


def test_trial_covariates_checked_before_the_actions():
    with raises_exactly("trial covariates must be finite"):
        TrialDataset([[np.nan]], [0, 0], [1.0], k_actions=1)
    with raises_exactly("actions and losses must align with the covariate rows"):
        TrialDataset([[0.0]], [0, 0], [1.0], k_actions=1)


def test_trial_is_not_a_target_population():
    with raises_exactly("unknown population 'trial'; choose from A, B, C, D"):
        scenario("trial")
    with raises_exactly("unknown population 'Z'; choose from A, B, C, D"):
        scenario("Z")


def ipsw_args(n_target):
    return trial(), np.ones(4), PolicySpec.uniform(), TrialDesign.uniform(2), n_target


GUARDS = {
    "CalibrationSet empty": ("losses must be a nonempty vector", lambda: CalibrationSet([], [], [])),
    "CalibrationSet misaligned": (
        "weights must align with the losses",
        lambda: CalibrationSet([1.0, 2.0], [1.0], [1.0, 1.0]),
    ),
    "CalibrationSet nan loss": (
        "losses must be finite",
        lambda: CalibrationSet([math.nan], [1.0], [1.0]),
    ),
    "CalibrationSet inf weight": (
        "weights must be finite",
        lambda: CalibrationSet([1.0], [1.0], [math.inf]),
    ),
    "CalibrationSet negative weight": (
        "weights must be nonnegative",
        lambda: CalibrationSet([1.0], [-1.0], [1.0]),
    ),
    "CalibrationSet lower above upper": (
        "lower weights must not exceed upper weights",
        lambda: CalibrationSet([1.0], [2.0], [1.0]),
    ),
    "WeightBoundSet empty": ("need at least one upper weight", lambda: WeightBoundSet([])),
    "WeightBoundSet nan": (
        "upper weights must be finite and nonnegative",
        lambda: WeightBoundSet([math.nan]),
    ),
    "WeightBoundSet negative": (
        "upper weights must be finite and nonnegative",
        lambda: WeightBoundSet([-1.0]),
    ),
    "stand_in_cdf negative weight": (
        "out-of-sample weight must be nonnegative",
        lambda: stand_in_cdf(sets()[0], -1.0, 2.0),
    ),
    "quantile negative bound": (
        "weight bound must be nonnegative",
        lambda: quantile(sets()[0], -1.0, 0.5, 0.1),
    ),
    "check_curve_args no gamma": ("need at least one gamma", lambda: check_curve_args(None, (), 9.0)),
    "limit gamma square overflows": (
        "gamma=1e+200 is too large: its square overflows",
        lambda: limit(*sets(), 0.1, 1e200),
    ),
    "ipsw_value n_target": ("n_target must be at least 1", lambda: ipsw_value(*ipsw_args(0))),
    "ipsw_cdf n_target": ("n_target must be at least 1", lambda: ipsw_cdf(*ipsw_args(0), 1.0)),
    "ipsw_quantile n_target": (
        "n_target must be at least 1",
        lambda: ipsw_quantile(*ipsw_args(0), 0.5),
    ),
    "LogisticConfig l2": ("l2 must be nonnegative", lambda: LogisticConfig(l2=-1e-9)),
    "LogisticConfig tol": ("tol must be positive", lambda: LogisticConfig(tol=0.0)),
    "reliability_diagram misaligned": (
        "odds and labels must align",
        lambda: reliability_diagram(np.ones(3), [0, 1, 0, 1]),
    ),
    "reliability_diagram one bin": (
        "need at least 2 bins",
        lambda: reliability_diagram(np.ones(2), [0, 1], bins=1),
    ),
    # command-line lists and grids
    "--gammas not a number": (
        "bad number list '1,x': could not convert string to float: 'x'",
        lambda: parse_floats("1,x"),
    ),
    "--alpha-grid stop below start": ("bad alpha grid '0.5:0.1:0.1'", lambda: parse_alpha_grid("0.5:0.1:0.1")),
    "--alpha-grid outside (0, 1)": (
        "alpha grid '1:2:0.5' has no points inside (0, 1)",
        lambda: parse_alpha_grid("1:2:0.5"),
    ),
    # data containers
    "TrialDataset no actions": (
        "k_actions must be at least 1",
        lambda: TrialDataset(np.zeros((2, 1)), [0, 0], [1.0, 2.0], k_actions=0),
    ),
    "LabeledPool misaligned labels": (
        "labels must align with the covariate rows",
        lambda: LabeledPool(np.zeros((3, 1)), [0, 1]),
    ),
    "drop_feature out of range": (
        "feature index 2 out of range for d=2",
        lambda: LabeledPool(np.zeros((2, 2)), [0, 1]).drop_feature(2),
    ),
    "PolicySpec unknown kind": ("unknown policy kind: 'greedy'", lambda: PolicySpec("greedy")),
    "PolicySpec negative constant": (
        "constant policy needs a nonnegative action index",
        lambda: PolicySpec.constant(-1),
    ),
    "PolicySpec 1-d table": (
        "policy table must be a nonempty 2-d array",
        lambda: PolicySpec.from_table([0.5, 0.5]),
    ),
    "PolicySpec constant beyond the actions": (
        "constant policy action exceeds the action count",
        lambda: PolicySpec.constant(2).prob_matrix(3, 2),
    ),
    "TrialDesign empty": ("design probabilities must be a nonempty vector", lambda: TrialDesign([])),
    "matched_split design mismatch": (
        "design action count does not match the trial dataset",
        lambda: matched_split(trial(), PolicySpec.uniform(), TrialDesign.uniform(3)),
    ),
    # synthetic lab
    "PopulationParams variance": (
        "variances must be positive",
        lambda: PopulationParams(0.0, 0.0, 0.0, 1.0, 0.0, 1.0),
    ),
    "SimScenario no rows": (
        "sample sizes must be at least 1",
        lambda: SimScenario(scenario("A").target, n=0),
    ),
    "SimScenario too many rows": (
        "sample sizes must be at most 10000000",
        lambda: SimScenario(scenario("A").target, m_train=10**7 + 1),
    ),
    "sample_target no rows": ("n must be at least 1", lambda: sample_target(scenario("A").target, 0, 0)),
    "sample_trial no rows": (
        "m must be at least 1",
        lambda: sample_trial(scenario("A").trial, 0, TrialDesign.uniform(2), 0),
    ),
    "true_odds prior ratio": (
        "prior_ratio must be positive",
        lambda: true_odds(np.zeros((1, 2)), scenario("A").target, scenario("A").trial, prior_ratio=0),
    ),
    "CertifiedMethod split": (
        "split must be 'matched' or 'random'",
        lambda: CertifiedMethod(gamma=1.0, split="halves"),
    ),
    "CertifiedMethod odds source": (
        "odds_source must be 'fitted' or 'oracle'",
        lambda: CertifiedMethod(gamma=1.0, odds_source="true"),
    ),
    "IpswMethod odds source": (
        "odds_source must be 'fitted' or 'oracle'",
        lambda: IpswMethod(odds_source="true"),
    ),
    "miscoverage_gap no runs": (
        "runs and per_run must be at least 1",
        lambda: miscoverage_gap(scenario("A"), CertifiedMethod(gamma=1.0), [0.1], runs=0, per_run=1),
    ),
    "miscoverage_gap too many rows": (
        "per_run must be at most 10000000",
        lambda: miscoverage_gap(scenario("A"), CertifiedMethod(gamma=1.0), [0.1], runs=1, per_run=10**7 + 1),
    ),
    # other guards
    "benchmark_all rows": (
        "rows must be one of 'all', 'trial', 'target'",
        lambda: benchmark_all(LabeledPool(np.zeros((2, 2)), [0, 1]), rows="both"),
    ),
    "bounded_weights negative ratio": (
        "ratio must be nonnegative",
        lambda: bounded_weights(1.0, -0.5, 1.0),
    ),
    "stand_in_cdf minus infinity": (
        "out-of-sample weight must be nonnegative",
        lambda: stand_in_cdf(sets()[0], -math.inf, 2.0),
    ),
}


@pytest.mark.parametrize("site", sorted(GUARDS))
def test_guard_message_at_each_site(site):
    message, call = GUARDS[site]
    with raises_exactly(message):
        call()


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_prior_correction_refused(tmp_path, value):
    path = scores_file(tmp_path, "odds", 2.0)
    with raises_exactly("prior_correction must be a positive finite number"):
        load_external_scores(path, value)


def test_bins_refused_before_the_edges_are_allocated(monkeypatch):
    """10**9 bins would allocate 8 GB of edges; the cap refuses them first."""

    def no_allocation(*args, **kwargs):
        raise AssertionError("edges allocated")

    monkeypatch.setattr(np, "linspace", no_allocation)
    monkeypatch.setattr(np, "quantile", no_allocation)
    with raises_exactly("need at most 1000000 bins"):
        reliability_diagram(np.ones(4), [0, 1, 0, 1], bins=10**9)
