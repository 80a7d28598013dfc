"""Selection-odds models: in-repo logistic fit, external scores, reliability diagnostics."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .fileio import atomic_write_text, read_table

LOGIT_CLAMP = 30.0


@dataclasses.dataclass(frozen=True)
class LogisticConfig:
    """Hyperparameters of the damped Newton (IRLS) fit.

    Each Newton step starts at length 1 and is halved by ``backtrack`` until
    the objective drops by at least ``armijo`` times the predicted decrease.
    The fit converges when the largest absolute penalized gradient entry is
    at most ``tol``. ``max_coef`` is a separation guard: once any
    standardized coefficient exceeds it the likelihood is effectively
    degenerate and the fit is reported as non-converged. With ``l2 == 0`` a
    fit whose every row lies on the correct side of the decision boundary is
    reported as non-converged too, because completely separated data has no
    finite maximum-likelihood estimate. A positive ``l2`` keeps coefficients
    finite.
    """

    l2: float = 1e-6
    max_iter: int = 1000
    tol: float = 1e-6
    backtrack: float = 0.5
    armijo: float = 1e-4
    max_coef: float = 100.0

    def __post_init__(self):
        for name in ("l2", "tol", "backtrack", "armijo", "max_coef"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclasses.dataclass(frozen=True)
class FitReport:
    converged: bool
    iterations: int
    grad_max: float
    objectives: tuple[float, ...]


class LabeledPool:
    """Covariate rows labeled 0 (target) or 1 (trial)."""

    def __init__(self, x, labels):
        self.x = np.asarray(x, dtype=np.float64)
        if self.x.ndim != 2 or self.x.shape[0] == 0:
            raise ValueError("pool covariates must be a nonempty 2-d array")
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (self.x.shape[0],):
            raise ValueError("labels must align with the covariate rows")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0 (target) or 1 (trial)")
        if len(np.unique(self.labels)) < 2:
            raise ValueError("pool must contain both target and trial rows")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("pool covariates must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def drop_feature(self, k: int) -> "LabeledPool":
        if not 0 <= k < self.dim:
            raise ValueError(f"feature index {k} out of range for d={self.dim}")
        kept = np.delete(self.x, k, axis=1)
        return LabeledPool(kept, self.labels)


@dataclasses.dataclass(frozen=True)
class LogisticModel:
    """Logistic model of the trial-membership probability, in standardized feature space."""

    coefficients: np.ndarray
    intercept: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    report: FitReport | None = None

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    @property
    def raw_coefficients(self) -> np.ndarray:
        """Coefficients mapped back to the unstandardized feature space."""
        return self.coefficients / self.feature_scale

    @property
    def raw_intercept(self) -> float:
        return float(self.intercept - np.sum(self.coefficients * self.feature_mean / self.feature_scale))


def _objective(z1, s, theta, l2):
    """Mean negative log-likelihood plus the penalty, with the logits and
    ``log(1 + exp(logits))`` the gradient reuses. ``z1`` ends in the
    intercept column, which is not penalized."""
    logits = z1 @ theta
    softplus = np.logaddexp(0.0, logits)
    w = theta[:-1]
    obj = (float(np.sum(softplus)) - float(s @ logits)) / s.shape[0] + 0.5 * l2 * float(w @ w)
    return obj, logits, softplus


def _gradient_and_hessian(z1, s, theta, logits, softplus, l2):
    n = s.shape[0]
    p = np.exp(logits - softplus)  # sigmoid(logits), without overflow
    grad = z1.T @ (p - s) / n
    grad[:-1] += l2 * theta[:-1]
    hess = z1.T @ (z1 * (p * (1.0 - p))[:, None]) / n
    hess[np.diag_indices(theta.shape[0] - 1)] += l2
    return grad, hess


def _newton_direction(grad, hess):
    """The Newton direction, or the gradient when its solution does not point
    downhill. A singular system (a constant covariate at ``l2 == 0``) takes
    the minimum-norm least-squares step, which leaves the coefficients of
    the flat directions unchanged."""
    try:
        delta = np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        delta = np.linalg.lstsq(hess, grad, rcond=None)[0]
    if not np.all(np.isfinite(delta)) or not float(grad @ delta) > 0.0:
        return grad
    return delta


def fit_logistic(pool: LabeledPool, config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    """Minimize the L2-regularized negative log-likelihood by damped Newton
    (iteratively reweighted least squares) with Armijo backtracking.

    Standardization is fitted on the pool; the intercept is not penalized and
    no class reweighting is applied. Each step solves the (d+1)x(d+1) system
    ``H delta = g``; when that fails or gives no descent direction, the step
    follows the gradient instead. The report is non-converged when the
    gradient stays above ``tol``, a coefficient passes ``max_coef``, or, at
    ``l2 == 0``, the fitted logits separate the two classes completely.
    """
    n, d = pool.x.shape
    mean = pool.x.mean(axis=0)
    scale = pool.x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    z1 = np.empty((n, d + 1))
    np.subtract(pool.x, mean, out=z1[:, :d])
    z1[:, :d] /= scale
    z1[:, d] = 1.0
    s = pool.labels.astype(np.float64)

    theta = np.zeros(d + 1)
    obj, logits, softplus = _objective(z1, s, theta, config.l2)
    grad, hess = _gradient_and_hessian(z1, s, theta, logits, softplus, config.l2)
    objectives = [obj]
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        if float(np.max(np.abs(grad))) <= config.tol:
            iterations -= 1
            break
        delta = _newton_direction(grad, hess)
        decrease = float(grad @ delta)
        step = 1.0
        while step > 1e-18:
            candidate = theta - step * delta
            cand_obj, cand_logits, cand_softplus = _objective(z1, s, candidate, config.l2)
            if cand_obj <= obj - config.armijo * step * decrease:
                break
            step *= config.backtrack
        else:
            break  # line search stalled
        theta, obj, logits, softplus = candidate, cand_obj, cand_logits, cand_softplus
        grad, hess = _gradient_and_hessian(z1, s, theta, logits, softplus, config.l2)
        objectives.append(obj)
        if float(np.max(np.abs(theta[:-1]))) > config.max_coef:
            break  # separation guard
    gmax = float(np.max(np.abs(grad)))
    converged = gmax <= config.tol and float(np.max(np.abs(theta[:-1]))) <= config.max_coef
    if converged and config.l2 == 0:
        # every margin (2s - 1) * logit positive: no finite MLE exists
        converged = not bool(np.all(np.where(pool.labels == 1, logits, -logits) > 0))
    report = FitReport(converged, iterations, gmax, tuple(objectives))
    return LogisticModel(theta[:-1].copy(), float(theta[-1]), mean, scale, report)


def predict_logit(model: LogisticModel, x) -> np.ndarray:
    """Clamped log-odds of trial membership, ``log p(S=1|x) / p(S=0|x)``, one
    per row of the 2-d covariate array ``x``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("x must be a 2-d array of covariate rows")
    if arr.shape[1] != model.dim:
        raise ValueError(f"expected {model.dim} features, got {arr.shape[1]}")
    z = (arr - model.feature_mean) / model.feature_scale
    return np.clip(z @ model.coefficients + model.intercept, -LOGIT_CLAMP, LOGIT_CLAMP)


def predict_odds(model: LogisticModel, x) -> np.ndarray:
    """Nominal selection odds ``p(S=0|x) / p(S=1|x)`` per row of ``x``;
    strictly positive and finite."""
    return np.exp(-predict_logit(model, x))


def load_external_scores(path, prior_correction: float = 1.0) -> np.ndarray:
    """Per-row selection odds from an ``id,p_s1`` or ``id,odds`` score file;
    ids must cover 0..N-1 and the odds come back in id order.

    ``prior_correction`` multiplies the odds, for scores produced by models
    trained with class balancing.
    """
    if prior_correction <= 0 or not math.isfinite(prior_correction):
        raise ValueError("prior_correction must be a positive finite number")

    def fields_for(header):
        if header not in (["id", "p_s1"], ["id", "odds"]):
            raise ValueError(f"{path}: header must be 'id,p_s1' or 'id,odds'")
        return [("id", int, ()), (header[1], float, ())]

    data = read_table(path, fields_for)
    kind = data.dtype.names[1]
    ids, vals = data["id"], data[kind]
    order = np.argsort(ids)
    if not np.array_equal(ids[order], np.arange(len(ids))):
        raise ValueError(f"{path}: ids must be exactly 0..{len(ids) - 1} with no gaps")
    vals = vals[order]
    if kind == "p_s1":
        if np.any(vals <= 0) or np.any(vals >= 1):
            raise ValueError(f"{path}: p_s1 values must lie strictly inside (0, 1)")
        odds = (1.0 - vals) / vals
    else:
        odds = vals
    if np.any(odds <= 0) or not np.all(np.isfinite(odds)):
        raise ValueError(f"{path}: odds must be strictly positive and finite")
    return odds * prior_correction


def save_model(model: LogisticModel, path) -> None:
    payload = {
        "schema_version": 1,
        "kind": "logistic-odds-model",
        "coefficients": [float(c) for c in model.coefficients],
        "intercept": model.intercept,
        "feature_mean": [float(v) for v in model.feature_mean],
        "feature_scale": [float(v) for v in model.feature_scale],
        "converged": model.report.converged if model.report else None,
        "iterations": model.report.iterations if model.report else None,
        "grad_max": model.report.grad_max if model.report else None,
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_model(path) -> LogisticModel:
    """Read a model written by ``save_model``, rejecting with ``ValueError``
    a file whose vectors differ in length or hold a non-finite value, or
    whose feature scales are not all positive.

    A saved ``converged`` flag comes back, with ``iterations`` and
    ``grad_max``, as the model's ``report`` (without the objective trace);
    a file without the flag gives ``report=None``."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("kind") != "logistic-odds-model":
        raise ValueError(f"{path}: not a logistic odds model file")
    fields = ("coefficients", "intercept", "feature_mean", "feature_scale")
    missing = [name for name in fields if name not in payload]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    try:
        coefficients, intercept, mean, scale = (
            np.asarray(payload[name], dtype=np.float64) for name in fields
        )
    except (TypeError, ValueError):
        raise ValueError(f"{path}: model fields must be numbers") from None
    if intercept.ndim != 0 or any(v.ndim != 1 for v in (coefficients, mean, scale)):
        raise ValueError(f"{path}: intercept must be a number and the other fields vectors")
    if not coefficients.shape == mean.shape == scale.shape:
        raise ValueError(
            f"{path}: coefficients, feature_mean and feature_scale differ in length "
            f"({coefficients.shape[0]}, {mean.shape[0]}, {scale.shape[0]})"
        )
    if not all(np.all(np.isfinite(v)) for v in (coefficients, intercept, mean, scale)):
        raise ValueError(f"{path}: model values must be finite")
    if np.any(scale <= 0):
        raise ValueError(f"{path}: feature_scale values must be positive")
    return LogisticModel(coefficients, float(intercept), mean, scale, _load_report(path, payload))


def _load_report(path, payload: dict) -> FitReport | None:
    converged = payload.get("converged")
    if converged is None:
        return None
    iterations = payload.get("iterations")
    grad_max = payload.get("grad_max")
    if (
        not isinstance(converged, bool)
        or not isinstance(iterations, int)
        or isinstance(iterations, bool)
        or not isinstance(grad_max, (int, float))
        or isinstance(grad_max, bool)
    ):
        raise ValueError(
            f"{path}: converged, iterations and grad_max must be a boolean, an integer and a number"
        )
    return FitReport(converged, iterations, float(grad_max), ())


@dataclasses.dataclass(frozen=True)
class ReliabilityBin:
    """One nominal-odds bin: interval, mean nominal odds, and the count-based
    observed odds (NaN when the bin holds no trial rows)."""

    lower: float
    upper: float
    mean_nominal: float
    observed: float
    n_target: int
    n_trial: int


def reliability_diagram(odds, labels, bins: int = 5) -> list[ReliabilityBin]:
    """Equal-count bins of nominal odds with count-based observed odds per bin.

    Quantile edges are deduplicated, so heavily tied odds collapse into fewer
    effective bins (a constant table yields a single bin).
    """
    values = np.asarray(odds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if values.shape != labels.shape:
        raise ValueError("odds and labels must align")
    if bins < 2:
        raise ValueError("need at least 2 bins")
    if len(np.unique(labels)) < 2:
        raise ValueError("pool must contain both target and trial rows")
    edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, bins + 1)))
    if edges.shape[0] == 1:
        assign = np.zeros(values.shape[0], dtype=np.int64)
        edges = np.array([edges[0], edges[0]])
    else:
        assign = np.clip(
            np.searchsorted(edges, values, side="right") - 1, 0, edges.shape[0] - 2
        )
    out = []
    for b in range(edges.shape[0] - 1):
        mask = assign == b
        if not mask.any():
            continue
        n_trial = int(np.sum(labels[mask] == 1))
        n_target = int(np.sum(labels[mask] == 0))
        observed = n_target / n_trial if n_trial > 0 else math.nan
        out.append(
            ReliabilityBin(
                float(edges[b]),
                float(edges[b + 1]),
                float(values[mask].mean()),
                observed,
                n_target,
                n_trial,
            )
        )
    return out
