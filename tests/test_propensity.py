"""Tests for the logistic odds model, score ingestion, and reliability bins."""

import dataclasses
import json
import math

import numpy as np
import pytest

from limitcurves import propensity
from limitcurves.data import PolicySpec, TrialDataset, TrialDesign
from limitcurves.propensity import (
    MAX_COEF,
    MAX_ITER,
    LabeledPool,
    LogisticConfig,
    fit_logistic,
    load_external_scores,
    load_model,
    predict_logit,
    predict_odds,
    reliability_diagram,
    save_model,
)
from limitcurves.weights import shift_weights


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def noise_pool(n=4000, d=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    labels = np.zeros(n, dtype=int)
    labels[: n // 2] = 1
    rng.shuffle(labels)
    return LabeledPool(x, labels)


def generated_pool(n=20000, seed=1):
    """Labels drawn from the logit ``2 x0 - 1``; ``x1`` is irrelevant."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    labels = (rng.random(n) < sigmoid(2.0 * x[:, 0] - 1.0)).astype(int)
    return LabeledPool(x, labels)


def separable_pool(n=200, seed=2):
    """Trial rows at x > 0 and target rows at x < 0: completely separated."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(0.05, 1.0, n), rng.uniform(-1.0, -0.05, n)])
    labels = np.concatenate([np.ones(n, dtype=int), np.zeros(n, dtype=int)])
    return LabeledPool(x.reshape(-1, 1), labels)


def penalized_gradient_max(model, pool, l2):
    """Largest absolute entry of the objective's gradient at ``model``,
    recomputed in standardized space with a plain sigmoid."""
    z = (pool.x - model.feature_mean) / model.feature_scale
    resid = sigmoid(z @ model.coefficients + model.intercept) - pool.labels
    grad_w = z.T @ resid / pool.n + l2 * model.coefficients
    return max(float(np.max(np.abs(grad_w))), abs(float(np.mean(resid))))


class TestFitLogistic:
    def test_label_independent_data_drives_parameters_to_zero(self):
        model = fit_logistic(noise_pool(), LogisticConfig(l2=1e-6))
        assert np.all(np.abs(model.coefficients) < 0.1)
        assert abs(model.intercept) < 0.1
        assert model.report.converged

    def test_recovers_generating_logit(self):
        model = fit_logistic(generated_pool(), LogisticConfig(l2=1e-6))
        raw = model.raw_coefficients
        assert abs(raw[0] - 2.0) < 0.1
        assert abs(raw[1]) < 0.1
        assert abs(model.raw_intercept - (-1.0)) < 0.1

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LabeledPool(np.zeros((4, 1)), [1, 1, 1, 1])

    def test_nonfinite_covariates_rejected(self):
        with pytest.raises(ValueError, match="pool covariates must be finite"):
            LabeledPool([[0.0], [np.nan]], [0, 1])
        with pytest.raises(ValueError, match="pool covariates must be finite"):
            LabeledPool([[np.inf, 1.0], [0.0, 1.0]], [0, 1])

    @pytest.mark.parametrize("field", ["l2", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LogisticConfig(**{field: value})

    def test_config_fields(self):
        names = [f.name for f in dataclasses.fields(LogisticConfig)]
        assert names == ["l2", "tol"]

    def test_separable_without_penalty_reports_non_converged(self):
        model = fit_logistic(separable_pool(), LogisticConfig(l2=0.0))
        assert not model.report.converged

    @staticmethod
    def traced_fit(monkeypatch, pool, config):
        """``fit_logistic`` with the objectives of the points it accepts, in
        order, and the number of line-search candidates it rejects. A point is
        accepted when the fit takes its gradient, and the start point counts
        as accepted."""
        tried, accepted = [], []
        objective, gradient = propensity._objective, propensity._gradient_and_hessian

        def traced_objective(z, s, theta, l2):
            out = objective(z, s, theta, l2)
            tried.append((theta, out[0]))
            return out

        def traced_gradient(z, s, theta, *rest):
            accepted.append(theta)
            return gradient(z, s, theta, *rest)

        monkeypatch.setattr(propensity, "_objective", traced_objective)
        monkeypatch.setattr(propensity, "_gradient_and_hessian", traced_gradient)
        model = fit_logistic(pool, config)
        objectives = [obj for theta, obj in tried if any(theta is a for a in accepted)]
        return model, objectives, len(tried) - len(accepted)

    def test_objective_decreases_across_accepted_iterations(self, monkeypatch):
        model, objectives, _ = self.traced_fit(monkeypatch, noise_pool(seed=3), LogisticConfig(l2=1e-4))
        assert len(objectives) == model.report.iterations + 1
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_backtracking_rejects_a_long_step(self, monkeypatch):
        """A full Newton step overshoots on this pool; the line search
        shortens it and the fit still converges."""
        x = [
            [939.141, 240.862], [1251.129, -299.774], [1439.714, 19.43], [-742.207, -472.531],
            [-916.146, -1931.96], [598.81, 794.358], [-1242.715, -517.628], [803.418, 552.145],
        ]
        pool = LabeledPool(x, [1, 1, 1, 1, 1, 1, 0, 1])
        model, objectives, rejected = self.traced_fit(monkeypatch, pool, LogisticConfig(l2=1e-4))
        assert rejected >= 1
        assert model.report.converged
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_stalled_line_search_ends_the_fit(self, monkeypatch):
        """On separated data at l2 == 0 the objective rounds to a floor
        before any gradient meets ``tol=1e-300``. The last line search then
        rejects every candidate, steps 1 down to 2**-59, and the fit stops
        non-converged with its coefficient below ``MAX_COEF``, long before
        ``MAX_ITER``."""
        pool = LabeledPool([[-2.0], [-1.0], [1.0], [2.0]], [0, 0, 1, 1])
        model, _, rejected = self.traced_fit(monkeypatch, pool, LogisticConfig(l2=0.0, tol=1e-300))
        assert rejected >= 60
        assert not model.report.converged
        assert model.report.iterations < 100
        assert 0 < model.report.grad_max < 1e-12
        assert np.max(np.abs(model.coefficients)) <= MAX_COEF

    @pytest.mark.parametrize(
        "hess", [-np.eye(2), np.diag([5e-324, 1.0])], ids=["uphill", "overflow"]
    )
    def test_newton_direction_falls_back_to_the_gradient(self, hess):
        """A Newton solution that does not point downhill, or is not finite,
        gives way to the gradient itself. Fits reach this only through the
        rounding of nearly singular Hessians (nearly collinear covariates at
        l2 == 0), which differs between LAPACK builds, so the rule is checked
        on the helper."""
        grad = np.array([0.5, -0.25])
        assert propensity._newton_direction(grad, hess) is grad

    def test_separation_guard_stops_growing_coefficients(self):
        """A narrow gap between the classes makes each Newton step long, so
        the coefficient passes ``MAX_COEF`` while the gradient is still above
        ``tol``; the guard ends the fit there, non-converged."""
        pool = LabeledPool([[-2.0], [-1.0], [-0.01], [0.01], [1.0], [2.0]], [0, 0, 0, 1, 1, 1])
        config = LogisticConfig(l2=0.0)
        model = fit_logistic(pool, config)
        assert not model.report.converged
        assert model.report.iterations < 20
        assert model.report.grad_max > config.tol
        assert np.max(np.abs(model.coefficients)) > MAX_COEF

    @pytest.mark.parametrize(
        "pool, l2",
        [
            (noise_pool(), 1e-6),
            (generated_pool(), 1e-6),
            (generated_pool(n=300, seed=12), 1e-2),
            (separable_pool(), 1e-2),
        ],
    )
    def test_converged_fit_meets_gradient_tolerance(self, pool, l2):
        """Includes separated data, which a positive penalty keeps finite."""
        config = LogisticConfig(l2=l2)
        model = fit_logistic(pool, config)
        assert model.report.converged
        assert np.all(np.isfinite(model.coefficients)) and math.isfinite(model.intercept)
        assert penalized_gradient_max(model, pool, l2) <= config.tol

    def test_noise_pool_converges_in_few_newton_steps(self):
        model = fit_logistic(noise_pool(), LogisticConfig(l2=1e-6))
        assert model.report.converged
        assert model.report.iterations <= 10

    def test_constant_covariate_keeps_newton_steps(self):
        """At l2 = 0 a constant column makes the Hessian singular; the
        least-squares step keeps Newton's iteration count and leaves that
        coefficient at 0 up to rounding."""
        base = noise_pool(n=500, seed=6)
        pool = LabeledPool(np.column_stack([base.x, np.full(base.n, 3.0)]), base.labels)
        model = fit_logistic(pool, LogisticConfig(l2=0.0))
        assert model.report.converged
        assert model.report.iterations <= 10
        assert abs(model.coefficients[-1]) < 1e-12

    def test_separable_without_penalty_non_converged_at_default_max_iter(self):
        """The fit meets ``tol`` with its coefficient below ``MAX_COEF``, far
        before ``MAX_ITER`` steps, and only the l2 == 0 separation rule
        reports it as non-converged."""
        config = LogisticConfig(l2=0.0)
        model = fit_logistic(separable_pool(), config)
        assert not model.report.converged
        assert model.report.iterations < MAX_ITER
        assert model.report.grad_max <= config.tol
        assert np.max(np.abs(model.coefficients)) <= MAX_COEF


class TestPredictOdds:
    def zero_model(self, d=2):
        pool = noise_pool(n=100, d=d, seed=4)
        model = fit_logistic(pool, LogisticConfig(l2=1e-2))
        return model

    def test_symmetric_model_gives_unit_odds(self):
        from limitcurves.propensity import LogisticModel

        model = LogisticModel(np.zeros(2), 0.0, np.zeros(2), np.ones(2))
        assert np.array_equal(predict_odds(model, np.array([[3.0, -1.0]])), [1.0])

    def test_definition_at_log_three(self):
        from limitcurves.propensity import LogisticModel

        model = LogisticModel(np.zeros(1), math.log(3.0), np.zeros(1), np.ones(1))
        assert predict_odds(model, np.array([[0.0]]))[0] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_clamped_logit(self):
        from limitcurves.propensity import LogisticModel

        model = LogisticModel(np.zeros(1), -40.0, np.zeros(1), np.ones(1))
        assert np.array_equal(predict_odds(model, np.array([[0.0]])), [math.exp(30.0)])

    def test_odds_times_probability_ratio_is_one(self):
        model = self.zero_model()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 2))
        logits = predict_logit(model, x)
        odds = predict_odds(model, x)
        assert np.allclose(odds * (sigmoid(logits) / sigmoid(-logits)), 1.0, rtol=1e-12)

    def test_dimension_mismatch(self):
        model = self.zero_model(d=2)
        with pytest.raises(ValueError, match="expected 2 features, got 3"):
            predict_odds(model, np.zeros((1, 3)))

    def test_refuses_one_dimensional_rows(self):
        model = self.zero_model(d=2)
        for fn in (predict_logit, predict_odds):
            with pytest.raises(ValueError, match="2-d"):
                fn(model, np.zeros(2))


class TestModelFile:
    def test_round_trip_scores(self, tmp_path):
        pool = noise_pool(n=500, seed=6)
        model = fit_logistic(pool, LogisticConfig(l2=1e-3))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        x = np.random.default_rng(7).normal(size=(20, 2))
        assert np.array_equal(predict_odds(model, x), predict_odds(loaded, x))

    @pytest.mark.parametrize(
        "pool, l2, converged",
        [(noise_pool(n=500, seed=6), 1e-3, True), (separable_pool(), 0.0, False)],
    )
    def test_round_trip_keeps_fit_report(self, tmp_path, pool, l2, converged):
        model = fit_logistic(pool, LogisticConfig(l2=l2))
        assert model.report.converged is converged
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).report == model.report

    def test_fit_report_fields_are_the_saved_keys(self, tmp_path):
        """``FitReport`` holds exactly the fit keys that close a model file."""
        path = tmp_path / "model.json"
        save_model(fit_logistic(noise_pool(n=200, seed=2)), path)
        with open(path) as fh:
            keys = list(json.load(fh))
        names = [f.name for f in dataclasses.fields(propensity.FitReport)]
        assert names == ["converged", "iterations", "grad_max"] == keys[-3:]

    def test_file_without_fit_report(self, tmp_path):
        assert load_model(self.write_model(tmp_path / "m.json")).report is None

    @staticmethod
    def write_model(path, **changes):
        payload = {
            "kind": "logistic-odds-model",
            "coefficients": [0.5, -0.25],
            "intercept": 0.1,
            "feature_mean": [0.0, 1.0],
            "feature_scale": [1.0, 2.0],
        }
        payload.update(changes)
        path.write_text(json.dumps(payload))
        return path

    def test_valid_file_loads(self, tmp_path):
        model = load_model(self.write_model(tmp_path / "m.json"))
        assert model.dim == 2
        assert np.array_equal(model.feature_scale, [1.0, 2.0])

    @pytest.mark.parametrize(
        "changes",
        [
            {"feature_scale": [0.0, 1.0]},
            {"feature_scale": [1.0, -2.0]},
            {"coefficients": [0.5]},
            {"feature_mean": [0.0, 1.0, 2.0]},
            {"coefficients": [math.nan, 1.0]},
            {"feature_mean": [math.inf, 1.0]},
            {"feature_scale": [1.0, math.inf]},
            {"intercept": math.nan},
            {"intercept": [0.1]},
            {"coefficients": [[0.5, -0.25]]},
            {"coefficients": ["a", "b"]},
            {"kind": "something-else"},
            {"converged": "yes", "iterations": 3, "grad_max": 1e-7},
            {"converged": True, "iterations": 2.5, "grad_max": 1e-7},
            {"converged": True, "iterations": 3},
        ],
    )
    def test_invalid_file_rejected(self, tmp_path, changes):
        with pytest.raises(ValueError):
            load_model(self.write_model(tmp_path / "m.json", **changes))

    def test_missing_field_rejected(self, tmp_path):
        path = self.write_model(tmp_path / "m.json")
        payload = json.loads(path.read_text())
        del payload["feature_scale"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="missing feature_scale"):
            load_model(path)


class TestExternalScores:
    def write(self, tmp_path, lines):
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_p_s1_converted_to_odds(self, tmp_path):
        path = self.write(tmp_path, ["id,p_s1", "0,0.25", "1,0.5"])
        assert np.array_equal(load_external_scores(path), [3.0, 1.0])

    def test_odds_passthrough_and_prior_correction(self, tmp_path):
        path = self.write(tmp_path, ["id,odds", "1,2.0", "0,0.5"])
        assert np.array_equal(load_external_scores(path, prior_correction=2.0), [1.0, 4.0])

    def test_zero_probability_rejected(self, tmp_path):
        path = self.write(tmp_path, ["id,p_s1", "0,0.0"])
        with pytest.raises(ValueError):
            load_external_scores(path)

    def test_nonpositive_odds_rejected(self, tmp_path):
        path = self.write(tmp_path, ["id,odds", "0,-1.0"])
        with pytest.raises(ValueError):
            load_external_scores(path)

    def test_gapped_ids_rejected(self, tmp_path):
        path = self.write(tmp_path, ["id,odds", "0,1.0", "2,1.0"])
        with pytest.raises(ValueError):
            load_external_scores(path)

    def test_bad_header_rejected(self, tmp_path):
        path = self.write(tmp_path, ["row,odds", "0,1.0"])
        with pytest.raises(ValueError):
            load_external_scores(path)

    def test_alignment_length_checked(self, tmp_path):
        """Two scores for three trial rows: the weights refuse them."""
        path = self.write(tmp_path, ["id,odds", "0,1.0", "1,2.0"])
        trial = TrialDataset(np.zeros((3, 1)), [0, 1, 0], [1.0, 2.0, 3.0], 2)
        odds = load_external_scores(path)
        with pytest.raises(ValueError, match="align"):
            shift_weights(trial, odds, PolicySpec.uniform(), TrialDesign.uniform(2))


class TestReliabilityDiagram:
    def test_observed_odds_match_bin_aggregated_mechanism(self):
        """The count-based estimate matches the bin-aggregated true odds
        (ratio of summed class probabilities) up to binomial noise."""
        rng = np.random.default_rng(8)
        n = 20000
        x = rng.normal(size=n)
        p1 = sigmoid(x)
        p0 = 1.0 - p1
        labels = (rng.random(n) < p1).astype(int)
        odds = p0 / p1
        bins = reliability_diagram(odds, labels, bins=5)
        assert len(bins) == 5
        for i, b in enumerate(bins):
            mask = (odds >= b.lower) & ((odds <= b.upper) if i == len(bins) - 1 else (odds < b.upper))
            aggregated = p0[mask].sum() / p1[mask].sum()
            se = b.observed * math.sqrt(1.0 / b.n_target + 1.0 / b.n_trial)
            assert abs(b.observed - aggregated) <= 4 * se

    def test_empty_bins_are_skipped(self):
        """Two rows over four bins fill the first and the last; the two
        empty bins between them are left out."""
        bins = reliability_diagram([1.0, 11.0], [0, 1], bins=4)
        assert [(b.lower, b.upper, b.n_target, b.n_trial) for b in bins] == [
            (1.0, 3.5, 1, 0),
            (8.5, 11.0, 0, 1),
        ]

    def test_oracle_scores_fall_near_diagonal(self):
        """For a moderate mechanism the diagram lies on the diagonal: observed
        odds track the mean nominal odds within binomial noise. (Very wide
        bins would separate the two: counts aggregate probabilities, not
        probability ratios.)"""
        rng = np.random.default_rng(8)
        n = 20000
        x = rng.normal(size=n)
        p1 = sigmoid(0.3 * x)
        labels = (rng.random(n) < p1).astype(int)
        odds = (1.0 - p1) / p1
        bins = reliability_diagram(odds, labels, bins=5)
        for b in bins:
            se = b.observed * math.sqrt(1.0 / b.n_target + 1.0 / b.n_trial)
            assert abs(b.observed - b.mean_nominal) <= 3 * se

    def test_constant_odds_single_effective_bin(self):
        labels = np.array([0, 1] * 20)
        bins = reliability_diagram(np.ones(40), labels, bins=5)
        assert len(bins) == 1
        assert bins[0].observed == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            reliability_diagram(np.ones(10), np.zeros(10, dtype=int), bins=2)

    def test_counts_cover_pool_and_bins_ordered(self):
        rng = np.random.default_rng(9)
        odds = rng.lognormal(0.0, 1.0, 500)
        labels = rng.integers(0, 2, 500)
        bins = reliability_diagram(odds, labels, bins=7)
        assert sum(b.n_target + b.n_trial for b in bins) == 500
        uppers = [b.upper for b in bins]
        lowers = [b.lower for b in bins]
        assert all(lo < up for lo, up in zip(lowers, uppers))
        assert all(prev == nxt for prev, nxt in zip(uppers[:-1], lowers[1:]))

    def test_empty_trial_bin_reports_nan(self):
        odds = np.array([1.0, 1.0, 5.0, 5.0])
        labels = np.array([0, 1, 0, 0])
        bins = reliability_diagram(odds, labels, bins=2)
        assert math.isnan(bins[-1].observed)

    def test_banded_model_keeps_bins_inside_band(self):
        """A model whose odds deviate from the mechanism by at most a factor
        of 1.5 keeps every bin's observed odds within a slightly widened
        multiplicative band around the mean nominal odds."""
        rng = np.random.default_rng(11)
        n = 20000
        x = rng.normal(size=n)
        p1 = sigmoid(0.5 * x)
        labels = (rng.random(n) < p1).astype(int)
        true_odds = (1.0 - p1) / p1
        band = 1.5
        nominal = true_odds * np.exp(np.log(band) * np.sin(3.0 * x))
        bins = reliability_diagram(nominal, labels, bins=5)
        widened = band * 1.25
        for b in bins:
            assert b.mean_nominal / widened <= b.observed <= widened * b.mean_nominal
