"""Certified-quantile engine: order-statistic weight bounds, the weighted
stand-in CDF, and miscalibration-indexed limit curves.

The scale of the weights never matters: every quantity below is a ratio of
weight sums, so the unknown trial/target prior constant cancels and callers
can hand in unnormalized selection odds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import backend
from .data import PolicySpec, SplitResult, TrialDataset, TrialDesign, check_l_max
from .data import matched_split, random_split
from .weights import check_gamma, shift_weights, trial_odds


MAX_GRID_POINTS = 10**6  # per generated alpha or beta grid, checked before allocating


def default_alpha_grid() -> np.ndarray:
    """Miscoverage grid 0.01, 0.02, ..., 0.99."""
    return np.arange(1, 100) / 100.0


def check_grid_points(points: int) -> None:
    if points < 1:
        raise ValueError("need at least one grid point")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"need at most {MAX_GRID_POINTS} grid points")


def default_beta_grid(alpha: float, points: int = 49) -> np.ndarray:
    """Evenly spaced grid strictly inside (0, alpha), proportional to alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    check_grid_points(points)
    return alpha * np.arange(1, points + 1) / (points + 1)


class CalibrationSet:
    """Losses with per-sample lower/upper shift weights, sorted by loss.

    Ties keep their original input order; weights follow their sample through
    the sort.
    """

    def __init__(self, losses, lower, upper):
        losses = np.asarray(losses, dtype=np.float64)
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if losses.ndim != 1 or losses.shape[0] == 0:
            raise ValueError("losses must be a nonempty vector")
        if lower.shape != losses.shape or upper.shape != losses.shape:
            raise ValueError("weights must align with the losses")
        if not np.all(np.isfinite(losses)):
            raise ValueError("losses must be finite")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("weights must be finite")
        if np.any(lower < 0) or np.any(upper < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(lower > upper):
            raise ValueError("lower weights must not exceed upper weights")
        order = np.argsort(losses, kind="stable")
        self.order = order
        self.losses = losses[order]
        self.lower = lower[order]
        self.upper = upper[order]
        # last index of every run of equal losses: the points where the
        # stand-in CDF can jump
        m = self.losses.shape[0]
        if m == 1:
            self.group_ends = np.array([0], dtype=np.int64)
        else:
            changes = np.flatnonzero(self.losses[1:] != self.losses[:-1])
            self.group_ends = np.append(changes, m - 1).astype(np.int64)

    @property
    def size(self) -> int:
        return self.losses.shape[0]

    @classmethod
    def from_shift_weights(cls, losses, base_weights) -> "CalibrationSet":
        """Gamma-free construction: lower = upper = odds * action ratio."""
        base = np.asarray(base_weights, dtype=np.float64)
        return cls(losses, base, base)


class WeightBoundSet:
    """Ascending upper shift weights of the weight-bound half."""

    def __init__(self, upper_weights):
        w = np.asarray(upper_weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] == 0:
            raise ValueError("need at least one upper weight")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("upper weights must be finite and nonnegative")
        self.upper = np.sort(w)

    @property
    def size(self) -> int:
        return self.upper.shape[0]


def certify(
    trial: TrialDataset,
    odds,
    policy: PolicySpec,
    design: TrialDesign,
    split: str = "random",
    frac: float = 0.5,
    seed: int = 0,
) -> tuple[CalibrationSet, WeightBoundSet, SplitResult]:
    """Split the trial records and weight both halves by their covariate-shift
    weights: the calibration set from D'' and the weight-bound set from D'.

    ``split="random"`` draws |D'| = round(frac * m) rows at random and weights
    by odds * p_policy(a|x) / p_design(a); ``split="matched"`` keeps in D''
    the rows whose action a fresh policy draw reproduces, and both halves
    carry their plain odds. ``frac`` applies to the random split only.
    """
    if split == "matched":
        weights = trial_odds(trial, odds)
        parts = matched_split(trial, policy, design, seed=seed)
    elif split == "random":
        weights = shift_weights(trial, odds, policy, design)
        parts = random_split(trial, frac=frac, seed=seed)
    else:
        raise ValueError(f"unknown split {split!r}; use 'random' or 'matched'")
    cal = CalibrationSet.from_shift_weights(
        parts.d_double_prime.losses, weights[parts.idx_double_prime]
    )
    return cal, WeightBoundSet(weights[parts.idx_prime]), parts


def weight_bound(ws: WeightBoundSet, beta: float) -> float:
    """Order statistic bounding the out-of-sample upper weight at level 1 - beta.

    Returns ``math.inf`` when the sample is too small for the requested level;
    downstream code treats that as "no finite quantile" rather than doing
    arithmetic with the infinity.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly inside (0, 1)")
    return float(_weight_bound_values(ws.upper, np.array([beta]))[0])


def _weight_bound_values(sorted_upper: np.ndarray, betas: np.ndarray) -> np.ndarray:
    m = sorted_upper.shape[0]
    positions = np.ceil((m + 1.0) * (1.0 - betas))
    out = np.full(betas.shape, math.inf)
    ok = positions <= m
    out[ok] = sorted_upper[positions[ok].astype(np.int64) - 1]
    return out


def stand_in_cdf(cal: CalibrationSet, w: float, ell: float) -> float:
    """Weighted stand-in for the unknown loss CDF at ``ell``.

    Samples at or below ``ell`` contribute their lower weight, samples above
    contribute their upper weight, and ``w`` occupies the out-of-sample slot.
    ``w = inf`` gives 0. The function is a nondecreasing right-continuous step
    function of ``ell`` jumping only at observed losses.
    """
    if math.isinf(w):
        return 0.0
    if w < 0:
        raise ValueError("out-of-sample weight must be nonnegative")
    below = cal.losses <= ell
    num = float(np.sum(cal.lower[below]))
    den = (num + float(np.sum(cal.upper[~below]))) + w
    return num / den if den > 0 else 0.0


def _scan_arrays(losses_sorted, lower, upper, group_ends):
    """Per loss group: its loss, the lower-weight mass at or below it
    (``prefix``), and that mass plus the upper-weight mass above it
    (``denom_base``).

    ``prefix`` is a cumulative sum of nonnegative weights, so it never
    decreases. In exact arithmetic ``denom_base`` never increases, because
    lower <= upper; the running minimum makes that hold in floating point as
    well, where the sum can rise by an ulp. ``backend.best_stop_index``
    relies on both orders. Sums of small dyadic weights are exact, and there
    the minimum changes nothing.
    """
    prefix_all = np.cumsum(lower)
    rev = np.cumsum(upper[::-1])[::-1]
    suffix_after = np.empty_like(rev)
    suffix_after[:-1] = rev[1:]
    suffix_after[-1] = 0.0
    prefix = prefix_all[group_ends]
    denom_base = np.minimum.accumulate(prefix + suffix_after[group_ends])
    return losses_sorted[group_ends], prefix, denom_base


def _stop_loss(scan, wbars, alpha: float, betas) -> float | None:
    """Smallest loss of ``scan`` (from ``_scan_arrays``) where the stand-in CDF
    with weight ``wbars[j]`` reaches (1-alpha)/(1-betas[j]) for some j, or None."""
    loss_ends, prefix, denom_base = scan
    idx = backend.best_stop_index(prefix, denom_base, wbars, (1.0 - alpha) / (1.0 - betas))
    return None if idx < 0 else float(loss_ends[idx])


def quantile(cal: CalibrationSet, w_bound: float, alpha: float, beta: float) -> float | None:
    """Smallest observed loss where the stand-in CDF reaches (1-alpha)/(1-beta).

    Computed from prefix sums by a binary search over the loss groups.
    ``None`` means no observed loss reaches the level (including an infinite
    weight bound); callers report it as the trivial loss-support limit.
    """
    if not 0.0 < beta < alpha < 1.0:
        raise ValueError("need 0 < beta < alpha < 1")
    if w_bound < 0:
        raise ValueError("weight bound must be nonnegative")
    scan = _scan_arrays(cal.losses, cal.lower, cal.upper, cal.group_ends)
    return _stop_loss(scan, np.array([w_bound]), alpha, np.array([beta]))


def _limits(cal: CalibrationSet, ws: WeightBoundSet, gamma: float, cells) -> list[float | None]:
    """The ``limit`` of every ``(alpha, betas)`` cell at a checked ``gamma``.
    The gamma-scaled sums are built once, and each cell is one kernel call, so
    an iterator of cells keeps one beta grid in memory."""
    scan = _scan_arrays(cal.losses, cal.lower / gamma, cal.upper * gamma, cal.group_ends)
    sorted_bound = ws.upper * gamma
    return [
        _stop_loss(scan, _weight_bound_values(sorted_bound, betas), alpha, betas)
        for alpha, betas in cells
    ]


def limit(
    cal: CalibrationSet,
    ws: WeightBoundSet,
    alpha: float,
    gamma: float = 1.0,
    beta_grid=None,
) -> float | None:
    """Tightest certified limit at miscoverage ``alpha``: the minimum over the
    beta grid of the level-(1-beta) weight bound's quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    g = check_gamma(gamma)
    betas = (
        default_beta_grid(alpha)
        if beta_grid is None
        else np.asarray(beta_grid, dtype=np.float64)
    )
    if betas.ndim != 1 or betas.shape[0] == 0:
        raise ValueError("beta grid must be a nonempty vector")
    if np.any(betas <= 0) or np.any(betas >= alpha):
        raise ValueError("beta grid must lie strictly inside (0, alpha)")
    return _limits(cal, ws, g, [(alpha, betas)])[0]


@dataclasses.dataclass(frozen=True)
class LimitPoint:
    """One limit-curve entry; ``trivial`` marks the loss-support sentinel."""

    gamma: float
    alpha: float
    limit: float
    trivial: bool


@dataclasses.dataclass(frozen=True)
class LimitCurve:
    """Limit-curve entries over (gamma, alpha) grids plus per-gamma informativeness."""

    points: tuple[LimitPoint, ...]
    informativeness: dict[float, float]
    alpha_grid: np.ndarray
    gammas: tuple[float, ...]
    l_max: float

    def for_gamma(self, gamma: float) -> list[LimitPoint]:
        return [p for p in self.points if p.gamma == gamma]


def limit_curve(
    cal: CalibrationSet,
    ws: WeightBoundSet,
    alpha_grid=None,
    gammas=(1.0,),
    l_max: float | None = None,
    beta_points: int = 49,
) -> LimitCurve:
    """Limit curves for every (gamma, alpha) pair.

    ``l_max`` is the declared, finite upper bound of the loss support;
    entries whose stand-in CDF never reaches the level are reported at
    ``l_max`` with ``trivial=True``. Informativeness per gamma is one minus
    the smallest alpha with a nontrivial limit (0 when there is none).
    Weights are sorted once; every cell reuses the same prefix sums.
    """
    l_max = check_l_max(l_max)
    if float(cal.losses[-1]) >= l_max:
        raise ValueError("all observed losses must lie strictly below l_max")
    alphas = (
        default_alpha_grid()
        if alpha_grid is None
        else np.sort(np.asarray(alpha_grid, dtype=np.float64))
    )
    if alphas.shape[0] == 0:
        raise ValueError("alpha grid must be nonempty")
    if np.any(alphas <= 0) or np.any(alphas >= 1):
        raise ValueError("alpha grid must lie strictly inside (0, 1)")
    gamma_list = [check_gamma(g) for g in gammas]
    if not gamma_list:
        raise ValueError("need at least one gamma")
    if len(set(gamma_list)) != len(gamma_list):
        raise ValueError("gammas must be distinct")

    points: list[LimitPoint] = []
    informativeness: dict[float, float] = {}
    alpha_list = [float(a) for a in alphas]
    for g in gamma_list:
        cells = ((a, default_beta_grid(a, beta_points)) for a in alpha_list)
        finite_alphas = []
        for a, value in zip(alpha_list, _limits(cal, ws, g, cells)):
            if value is None:
                points.append(LimitPoint(g, a, l_max, True))
            else:
                points.append(LimitPoint(g, a, value, False))
                finite_alphas.append(a)
        informativeness[g] = (1.0 - min(finite_alphas)) if finite_alphas else 0.0
    return LimitCurve(tuple(points), informativeness, alphas, tuple(gamma_list), l_max)
