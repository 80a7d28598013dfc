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
from .data import MAX_GRID_POINTS, PolicySpec, SplitResult, TrialDataset, TrialDesign
from .data import check_distinct, check_gamma, check_grid_points, check_l_max, check_losses_below
from .data import check_open_unit, matched_split, random_split
from .weights import shift_weights, trial_odds

BETA_POINTS = 49  # beta grid points per alpha of every limit curve


def default_alpha_grid() -> np.ndarray:
    """Miscoverage grid 0.01, 0.02, ..., 0.99."""
    return np.arange(1, 100) / 100.0


def default_beta_grid(alpha, points: int = BETA_POINTS) -> np.ndarray:
    """Evenly spaced grid strictly inside (0, alpha), proportional to alpha.

    A column of alphas, shape ``(rows, 1)``, gives one grid per row, each
    computed with the same float operations as for its alpha alone."""
    check_open_unit(alpha, "alpha")
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
        self.losses = losses[order]
        self.lower = lower[order]
        self.upper = upper[order]
        # last index of every run of equal losses: the points where the
        # stand-in CDF can jump
        changes = np.flatnonzero(self.losses[1:] != self.losses[:-1])
        self.group_ends = np.append(changes, self.losses.shape[0] - 1).astype(np.int64)

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
        trial.losses[parts.idx_double_prime], weights[parts.idx_double_prime]
    )
    return cal, WeightBoundSet(weights[parts.idx_prime]), parts


def weight_bound(ws: WeightBoundSet, beta: float) -> float:
    """Order statistic bounding the out-of-sample upper weight at level 1 - beta.

    Returns ``math.inf`` when the sample is too small for the requested level;
    downstream code treats that as "no finite quantile" rather than doing
    arithmetic with the infinity.
    """
    check_open_unit(beta, "beta")
    return float(_weight_bound_values(ws.upper, np.array([beta]))[0])


def _weight_bound_values(sorted_upper: np.ndarray, betas: np.ndarray) -> np.ndarray:
    m = sorted_upper.shape[0]
    # every beta lies in (0, 1), so each position lies in [1, m + 1]; m + 1 reads the inf
    positions = np.ceil((m + 1.0) * (1.0 - betas)).astype(np.int64)
    return np.append(sorted_upper, math.inf)[positions - 1]


def stand_in_cdf(cal: CalibrationSet, w: float, ell: float) -> float:
    """Weighted stand-in for the unknown loss CDF at ``ell``.

    Samples at or below ``ell`` contribute their lower weight, samples above
    contribute their upper weight, and ``w`` occupies the out-of-sample slot.
    ``w = inf`` gives 0. The function is a nondecreasing right-continuous step
    function of ``ell`` jumping only at observed losses.
    """
    if w < 0:
        raise ValueError("out-of-sample weight must be nonnegative")
    below = cal.losses <= ell
    num = float(np.sum(cal.lower[below]))
    den = (num + float(np.sum(cal.upper[~below]))) + w
    return num / den if den > 0 else 0.0


def _scan_arrays(losses_sorted, lower, upper, group_ends):
    """Per loss group: its loss, the lower-weight mass at or below it
    (``prefix``), and the upper-weight mass strictly above it (``suffix``).

    With out-of-sample weight ``w`` the stand-in CDF there is
    ``prefix / (prefix + suffix + w)``, so it reaches ``(1 - alpha) / (1 - beta)``
    exactly when ``prefix / (suffix + w) >= (1 - alpha) / (alpha - beta)``,
    positive as ``beta < alpha``. ``gamma`` divides the lower weights and
    multiplies the upper ones and ``w``, which only scales that level by
    ``gamma**2``: one scan serves every gamma.
    Both arrays are cumulative sums of nonnegative weights, so ``prefix``
    never decreases and ``suffix`` never increases, in floating point too.
    """
    above = np.cumsum(upper[::-1])[::-1]
    suffix = np.append(above[1:], 0.0)
    return losses_sorted[group_ends], np.cumsum(lower)[group_ends], suffix[group_ends]


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
    level = (1.0 - alpha) / (alpha - beta)
    return _none_if_inf(_stop_losses(scan, np.array([[float(w_bound)]]), np.array([[level]]))[0])


def _none_if_inf(value) -> float | None:
    """A scalar limit for the public API: ``inf`` (no level reached) reads None."""
    return None if value == math.inf else float(value)


def _limits(cal: CalibrationSet, ws: WeightBoundSet, gammas, blocks) -> np.ndarray:
    """The ``limit`` of every row of every ``(alphas, betas)`` block as a
    ``(gammas, rows)`` array, ``inf`` where no level is reached: ``alphas``
    is a ``(rows, 1)`` column and ``betas`` a ``(rows, levels)`` grid. One
    scan serves every gamma, which scales only the level (see
    ``_scan_arrays``); each block is one kernel call per gamma."""
    scan = _scan_arrays(cal.losses, cal.lower, cal.upper, cal.group_ends)
    # a numpy square obeys the caller's errstate, so it cannot overflow silently
    squares = [np.float64(g) ** 2 for g in gammas]
    parts = []
    for alphas, betas in blocks:
        wbars = _weight_bound_values(ws.upper, betas)
        levels = (1.0 - alphas) / (alphas - betas)
        parts.append([_stop_losses(scan, wbars, g2 * levels) for g2 in squares])
    return np.concatenate(parts, axis=1)


# levels per kernel call: a block holds as many alphas as fit under this
# cap, so memory stays O(cap)
LEVEL_CAP = 2**16


def _default_blocks(alphas):
    """``(alphas, betas)`` blocks of the checked ``alphas`` in order, each
    row with ``default_beta_grid(alpha)``."""
    column = np.asarray(alphas, dtype=np.float64)[:, None]
    rows = LEVEL_CAP // BETA_POINTS
    for lo in range(0, column.shape[0], rows):
        yield column[lo : lo + rows], default_beta_grid(column[lo : lo + rows])


def _stop_losses(scan, wbars, thresholds) -> np.ndarray:
    """Per row of the ``(rows, levels)`` arrays ``wbars`` and ``thresholds``,
    the smallest loss of ``scan`` (``_scan_arrays``' loss ends, prefix and
    suffix) where ``prefix / (suffix + wbars[r, j])`` reaches
    ``thresholds[r, j]`` for some j; the kernel's -1 reads the appended inf."""
    loss_ends, prefix, suffix = scan
    return np.append(loss_ends, math.inf)[backend.best_stop_index(prefix, suffix, wbars, thresholds)]


def limit(
    cal: CalibrationSet,
    ws: WeightBoundSet,
    alpha: float,
    gamma: float = 1.0,
    beta_grid=None,
) -> float | None:
    """Tightest certified limit at miscoverage ``alpha``: the minimum over the
    beta grid of the level-(1-beta) weight bound's quantile."""
    check_open_unit(alpha, "alpha")
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
    return _none_if_inf(_limits(cal, ws, [g], [(np.array([[alpha]]), betas[None, :])])[0, 0])


@dataclasses.dataclass(frozen=True)
class LimitPoint:
    """One limit-curve entry; ``trivial`` marks the loss-support sentinel."""

    gamma: float
    alpha: float
    limit: float
    trivial: bool


@dataclasses.dataclass(frozen=True)
class LimitCurve:
    """Cells over (gamma, alpha) grids as one column per ``LimitPoint`` field, gamma-major."""

    columns: dict[str, np.ndarray]
    informativeness: dict[float, float]
    gammas: tuple[float, ...]
    l_max: float

    @property
    def points(self) -> tuple[LimitPoint, ...]:
        """The cells as ``LimitPoint``s, built when read."""
        return tuple(map(LimitPoint, *(c.tolist() for c in self.columns.values())))


def check_curve_args(
    alpha_grid=None, gammas=(1.0,), l_max: float | None = None
) -> tuple[list[float], list[float], float]:
    """The arguments of ``limit_curve`` once checked: the sorted alpha grid
    (``default_alpha_grid()`` when None), distinct and inside (0, 1); the
    gammas, each ``>= 1``, at least one and distinct, with at most
    ``MAX_GRID_POINTS`` (alpha, gamma) pairs; and the finite ``l_max``. None
    of them depends on the data, so a caller can check them before reading any."""
    l_max = check_l_max(l_max)
    alphas = (
        default_alpha_grid()
        if alpha_grid is None
        else np.sort(np.asarray(alpha_grid, dtype=np.float64))
    )
    check_open_unit(alphas, "alpha grid")
    check_distinct(alphas, "alpha grid")
    gamma_list = [check_gamma(g) for g in gammas]
    if not gamma_list:
        raise ValueError("need at least one gamma")
    check_distinct(gamma_list, "gammas")
    if alphas.shape[0] * len(gamma_list) > MAX_GRID_POINTS:
        raise ValueError(f"need at most {MAX_GRID_POINTS} (alpha, gamma) pairs")
    return alphas.tolist(), gamma_list, l_max


def limit_curve(
    cal: CalibrationSet,
    ws: WeightBoundSet,
    alpha_grid=None,
    gammas=(1.0,),
    l_max: float | None = None,
) -> LimitCurve:
    """Limit curves for every (gamma, alpha) pair, with the arguments checked
    by ``check_curve_args``.

    ``l_max`` is the declared, finite upper bound of the loss support;
    entries whose stand-in CDF never reaches the level are reported at
    ``l_max`` with ``trivial=True``. Informativeness per gamma is one minus
    the smallest alpha with a nontrivial limit (0 when there is none).
    Each alpha takes ``default_beta_grid(alpha)``; ``limit`` takes others.
    Weights are sorted once; every cell reuses the same prefix sums.
    """
    alpha_list, gamma_list, l_max = check_curve_args(alpha_grid, gammas, l_max)
    check_losses_below(cal.losses, l_max)

    limits = _limits(cal, ws, gamma_list, _default_blocks(alpha_list))
    trivial = np.isinf(limits)
    columns = {
        "gamma": np.repeat(gamma_list, len(alpha_list)),
        "alpha": np.tile(alpha_list, len(gamma_list)),
        "limit": np.where(trivial, l_max, limits).ravel(),
        "trivial": trivial.ravel(),
    }
    informativeness = {g: 0.0 if t.all() else 1.0 - alpha_list[t.argmin()] for g, t in zip(gamma_list, trivial)}
    return LimitCurve(columns, informativeness, tuple(gamma_list), l_max)
