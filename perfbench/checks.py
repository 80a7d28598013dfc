"""Output checkers. Each returns a list of problems; an empty list is a pass.

They recompute what they verify with numpy alone and import nothing from
``limitcurves``, so a faulty library cannot vouch for itself.
"""

from __future__ import annotations

import math

import numpy as np

# A crossing within this relative distance of its threshold may fall on either
# side: a kernel that sums in another order can move the stand-in CDF by an ulp.
CROSSING_RTOL = 1e-12
GAP_FLOOR = -0.02  # the coverage certificate of the acceptance suite
GRAD_TOL_FACTOR = 10.0
LOGIT_CLAMP = 30.0
BETA_POINTS = 49
# alpha positions (0-based, of the 99-point grid) whose cells are recomputed
SAMPLED_ALPHAS = (0, 2, 4, 9, 19, 29, 49, 69, 98)


def check_process(returncode: int | None, stderr: str) -> list[str]:
    problems = []
    if returncode is None:
        problems.append("killed at the run's deadline")
    elif returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


def model_odds(model: dict, x: np.ndarray) -> np.ndarray:
    """Nominal selection odds of a saved logistic model, ``exp(-logit)``."""
    z = (x - np.asarray(model["feature_mean"])) / np.asarray(model["feature_scale"])
    logits = z @ np.asarray(model["coefficients"]) + float(model["intercept"])
    return np.exp(-np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP))


def _monotonicity(points: list[dict], gammas) -> list[str]:
    problems = []
    table = {}
    for g in gammas:
        rows = sorted((p["alpha"], p["limit"]) for p in points if p["gamma"] == g)
        table[g] = dict(rows)
        for (a0, l0), (a1, l1) in zip(rows, rows[1:]):
            if l1 > l0:
                problems.append(f"gamma={g}: limit rises from alpha={a0} to alpha={a1}")
    ordered = sorted(gammas)
    for g0, g1 in zip(ordered, ordered[1:]):
        for alpha, value in table[g0].items():
            if table[g1].get(alpha, math.inf) < value:
                problems.append(f"alpha={alpha}: limit falls from gamma={g0} to gamma={g1}")
    return problems


def _cell_problem(loss_ends, prefix, denom_base, sorted_bound, alpha, point, l_max):
    """Check one reported cell against a direct stand-in CDF scan."""
    betas = alpha * np.arange(1, BETA_POINTS + 1) / (BETA_POINTS + 1)
    m = sorted_bound.shape[0]
    positions = np.ceil((m + 1.0) * (1.0 - betas))
    finite = positions <= m
    wbars = sorted_bound[positions[finite].astype(np.int64) - 1]
    thresholds = ((1.0 - alpha) / (1.0 - betas[finite]))[:, None]
    ratio = prefix[None, :] / (denom_base[None, :] + wbars[:, None])
    strict = (ratio >= thresholds * (1.0 + CROSSING_RTOL)).any(axis=0)
    first_strict = int(np.argmax(strict)) if strict.any() else loss_ends.shape[0]
    where = f"gamma={point['gamma']} alpha={alpha}"
    if point["trivial"]:
        if point["limit"] != l_max:
            return f"{where}: trivial cell not reported at l_max"
        if first_strict < loss_ends.shape[0]:
            return f"{where}: reported trivial but the CDF crosses at {loss_ends[first_strict]!r}"
        return None
    k = int(np.searchsorted(loss_ends, point["limit"]))
    if k >= loss_ends.shape[0] or loss_ends[k] != point["limit"]:
        return f"{where}: limit {point['limit']!r} is not an observed loss"
    loose = (ratio[:, k] >= thresholds[:, 0] * (1.0 - CROSSING_RTOL)).any()
    if not loose:
        return f"{where}: no beta crosses its threshold at the reported limit"
    if first_strict < k:
        return f"{where}: an earlier loss {loss_ends[first_strict]!r} already crosses"
    return None


def check_evaluate(payload: dict, trial_x, actions, losses, model: dict, gammas,
                   l_max: float) -> list[str]:
    """Limit curves of a ``constant:1`` policy under a matched split.

    With a constant policy the matched split is deterministic: the calibration
    half is exactly the rows whose recorded action is 1.
    """
    points = payload.get("curves", [])
    n_alphas = 99
    problems = []
    if len(points) != n_alphas * len(gammas):
        return [f"{len(points)} curve points, expected {n_alphas * len(gammas)}"]
    problems += _monotonicity(points, gammas)

    odds = model_odds(model, np.asarray(trial_x))
    cal = np.asarray(actions) == 1
    sizes = payload.get("split_sizes", {})
    if sizes != {"d_prime": int((~cal).sum()), "d_double_prime": int(cal.sum())}:
        problems.append(f"split sizes {sizes} do not match the matched split")
    cal_losses = np.asarray(losses)[cal]
    order = np.argsort(cal_losses, kind="stable")
    sorted_losses = cal_losses[order]
    ends = np.append(np.flatnonzero(sorted_losses[1:] != sorted_losses[:-1]),
                     sorted_losses.shape[0] - 1)
    for g in gammas:
        lower = odds[cal][order] / g
        upper = odds[cal][order] * g
        suffix_after = np.append(np.cumsum(upper[::-1])[::-1][1:], 0.0)
        prefix = np.cumsum(lower)[ends]
        denom_base = prefix + suffix_after[ends]
        sorted_bound = np.sort(odds[~cal]) * g
        cells = sorted((p for p in points if p["gamma"] == g), key=lambda p: p["alpha"])
        for i in SAMPLED_ALPHAS:
            problem = _cell_problem(sorted_losses[ends], prefix, denom_base, sorted_bound,
                                    cells[i]["alpha"], cells[i], l_max)
            if problem:
                problems.append(problem)
    return problems


def check_fit(stdout: str, model: dict, pool_x, labels, l2: float, tol: float) -> list[str]:
    """Converged flag plus the penalized gradient recomputed at the saved model,
    a condition every solver that honours ``--tol`` satisfies."""
    problems = []
    if "converged=True" not in stdout:
        problems.append("fit did not report converged=True")
    if model.get("converged") is not True:
        problems.append("saved model is not marked converged")
    x = np.asarray(pool_x, dtype=np.float64)
    s = np.asarray(labels, dtype=np.float64)
    w = np.asarray(model["coefficients"], dtype=np.float64)
    z = (x - np.asarray(model["feature_mean"])) / np.asarray(model["feature_scale"])
    logits = z @ w + float(model["intercept"])
    resid = 1.0 / (1.0 + np.exp(-logits)) - s
    grad = np.append(z.T @ resid / z.shape[0] + l2 * w, resid.mean())
    grad_max = float(np.max(np.abs(grad)))
    if not grad_max <= GRAD_TOL_FACTOR * tol:
        problems.append(f"penalized gradient {grad_max:.3e} exceeds {GRAD_TOL_FACTOR:g} x tol")
    return problems


def check_miscoverage(payload: dict) -> list[str]:
    rows = payload.get("rows", [])
    if not rows:
        return ["no miscoverage rows"]
    return [f"alpha={r['alpha']}: gap {r['gap']} below {GAP_FLOOR}"
            for r in rows if not r["gap"] >= GAP_FLOOR]
