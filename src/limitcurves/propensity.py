"""Selection-odds models: in-repo logistic fit, external scores, reliability diagnostics.

The fit reads a ``LabeledPool``, which lives in ``data`` beside the other
covariate containers and is importable from here as well.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .data import LabeledPool, check_grid_points, check_labels, check_odds, check_open_unit
from .fileio import open_input, read_table, write_json

LOGIT_CLAMP = 30.0
BACKTRACK = 0.5  # step-length factor of the line search
ARMIJO = 1e-4  # share of the predicted decrease a step must achieve
MAX_COEF = 100.0  # separation guard on the standardized coefficients
MAX_ITER = 1000  # Newton step cap, far above the steps any fit takes


@dataclasses.dataclass(frozen=True)
class LogisticConfig:
    """Hyperparameters of the damped Newton (IRLS) fit.

    Each Newton step starts at length 1 and is multiplied by ``BACKTRACK``
    until the objective drops by at least ``ARMIJO`` times the predicted
    decrease. The fit converges when the largest absolute penalized gradient
    entry is at most ``tol``. ``MAX_COEF`` is a separation guard: once any
    standardized coefficient exceeds it the likelihood is effectively
    degenerate and the fit is reported as non-converged. With ``l2 == 0`` a
    fit whose every row lies on the correct side of the decision boundary is
    reported as non-converged too, because completely separated data has no
    finite maximum-likelihood estimate. A positive ``l2`` keeps coefficients
    finite.
    """

    l2: float = 1e-4
    tol: float = 1e-6

    def __post_init__(self):
        for name in ("l2", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclasses.dataclass(frozen=True)
class FitReport:
    converged: bool
    iterations: int
    grad_max: float


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


def _objective(z, s, theta, l2):
    """Mean negative log-likelihood plus the penalty, with the logits and
    ``log(1 + exp(logits))`` the gradient reuses. ``z`` holds one feature per
    row and ends in the intercept row, which is not penalized."""
    logits = theta @ z
    softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))  # without overflow
    w = theta[:-1]
    obj = (float(np.sum(softplus)) - float(s @ logits)) / s.shape[0] + 0.5 * l2 * float(w @ w)
    return obj, logits, softplus


def _gradient_and_hessian(z, s, theta, logits, softplus, l2):
    n = s.shape[0]
    p = np.exp(logits - softplus)  # sigmoid(logits), without overflow
    grad = z @ (p - s) / n
    grad[:-1] += l2 * theta[:-1]
    hess = (z * (p * (1.0 - p))) @ z.T / n
    hess[np.diag_indices(theta.shape[0] - 1)] += l2
    return grad, hess


def _newton_direction(grad, hess):
    """The minimum-norm least-squares solution of ``hess @ delta = grad``, or
    the gradient when that fails or does not point downhill. A singular or
    nearly singular system (a constant or nearly collinear covariate at
    ``l2 == 0``) leaves the coefficients of its flat directions unchanged."""
    try:
        delta = np.linalg.lstsq(hess, grad, rcond=None)[0]
    except np.linalg.LinAlgError:  # a non-finite Hessian
        return grad
    if not np.all(np.isfinite(delta)) or not float(grad @ delta) > 0.0:
        return grad
    return delta


def fit_logistic(pool: LabeledPool, config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    """Minimize the L2-regularized negative log-likelihood by damped Newton
    (iteratively reweighted least squares) with Armijo backtracking.

    Standardization is fitted on the pool; the intercept is not penalized and
    no class reweighting is applied. Each step solves ``H delta = g``, or
    follows the gradient when that fails or does not descend, shrinking by
    ``BACKTRACK`` until the ``ARMIJO`` condition holds, for at most
    ``MAX_ITER`` steps. The report is non-converged when the gradient stays
    above ``tol``, a coefficient passes ``MAX_COEF``, or, at ``l2 == 0``,
    the logits separate the classes completely.
    """
    n, d = pool.x.shape
    # feature-major: each feature is a contiguous row, so the moments and the
    # products below run along contiguous memory
    z = np.empty((d + 1, n))
    features = z[:d]
    features[...] = pool.x.T
    mean = features.mean(axis=1)
    scale = features.std(axis=1)
    scale = np.where(scale > 0, scale, 1.0)
    features -= mean[:, None]
    features /= scale[:, None]
    z[d] = 1.0
    s = pool.labels.astype(np.float64)

    theta = np.zeros(d + 1)
    obj, logits, softplus = _objective(z, s, theta, config.l2)
    grad, hess = _gradient_and_hessian(z, s, theta, logits, softplus, config.l2)
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        if float(np.max(np.abs(grad))) <= config.tol:
            iterations -= 1
            break
        delta = _newton_direction(grad, hess)
        decrease = float(grad @ delta)
        step = 1.0
        while step > 1e-18:
            candidate = theta - step * delta
            cand_obj, cand_logits, cand_softplus = _objective(z, s, candidate, config.l2)
            if cand_obj <= obj - ARMIJO * step * decrease:
                break
            step *= BACKTRACK
        else:
            break  # line search stalled
        theta, obj, logits, softplus = candidate, cand_obj, cand_logits, cand_softplus
        grad, hess = _gradient_and_hessian(z, s, theta, logits, softplus, config.l2)
        if float(np.max(np.abs(theta[:-1]))) > MAX_COEF:
            break  # separation guard
    gmax = float(np.max(np.abs(grad)))
    converged = gmax <= config.tol and float(np.max(np.abs(theta[:-1]))) <= MAX_COEF
    if converged and config.l2 == 0:
        # every margin (2s - 1) * logit positive: no finite MLE exists
        converged = not bool(np.all(np.where(pool.labels == 1, logits, -logits) > 0))
    report = FitReport(converged, iterations, gmax)
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


def load_external_scores(path) -> np.ndarray:
    """Per-row selection odds from an ``id,p_s1`` or ``id,odds`` score file;
    ids must cover 0..N-1 and the odds come back in id order, as given. Scores
    of a model trained with class balancing go in as corrected ``id,odds``."""

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
        check_open_unit(vals, f"{path}: p_s1 values")
        odds = (1.0 - vals) / vals
    else:
        odds = vals
    check_odds(odds, f"{path}: odds")
    return odds


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
    write_json(path, payload)


def load_model(path) -> LogisticModel:
    """Read a model written by ``save_model``, rejecting with ``ValueError``
    a file whose vectors differ in length or hold a non-finite value, or
    whose feature scales are not all positive.

    A saved ``converged`` flag comes back, with ``iterations`` and
    ``grad_max``, as the model's ``report``; a file without the flag gives
    ``report=None``."""
    with open_input(path) as fh:
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
    return FitReport(converged, iterations, float(grad_max))


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
    check_grid_points(bins, "bins")  # before the edges are allocated
    check_labels(labels)
    # np.unique imports numpy.ma on its first call; np.quantile need not be monotone
    edges = np.sort(np.quantile(values, np.linspace(0.0, 1.0, bins + 1)))
    edges = edges[np.append(True, edges[1:] > edges[:-1])]
    if edges.shape[0] == 1:
        edges = np.repeat(edges, 2)  # one [v, v] bin that holds every row
    assign = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, edges.shape[0] - 2)
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
