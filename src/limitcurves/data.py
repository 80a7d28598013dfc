"""Dataset containers, input rules, and the two trial-splitting strategies.

The three covariate containers (``TrialDataset``, ``TargetCovariates``,
``LabeledPool``) check their rows through one rule, and the rules every
module shares live here: ``check_open_unit`` for alphas, betas and split
fractions, ``check_gamma`` for miscalibration factors, ``check_odds`` for
selection odds, ``check_labels`` for pool labels, ``check_distinct``,
``check_l_max``, ``check_losses_below`` and ``check_grid_points``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

PROB_TOL = 1e-9
MAX_GRID_POINTS = 10**6  # per generated grid or bin count, checked before allocating


def _as_matrix(rows, name: str) -> np.ndarray:
    """Covariate rows as a finite float64 matrix with at least one row and
    one column."""
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array of covariate rows")
    if x.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one row")
    if x.shape[1] == 0:
        raise ValueError(f"{name} must have at least one covariate column")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def check_open_unit(values, name: str) -> None:
    """Refuse an empty input, a NaN, or any value outside (0, 1)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0 or not np.all((v > 0.0) & (v < 1.0)):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")


def check_odds(values, name: str) -> None:
    """Refuse any value that is not strictly positive and finite."""
    v = np.asarray(values, dtype=np.float64)
    if not np.all((v > 0.0) & (v < math.inf)):
        raise ValueError(f"{name} must be strictly positive and finite")


def check_labels(labels: np.ndarray) -> None:
    """Refuse pool labels other than 0 (target) and 1 (trial), or labels
    that miss either class."""
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 (target) or 1 (trial)")
    if not (labels.any() and not labels.all()):
        raise ValueError("pool must contain both target and trial rows")


class TrialDataset:
    """Trial records (covariates, action, loss) with a fixed action count.

    Non-finite covariates or losses and out-of-range actions are rejected at
    construction, covariates first.
    """

    def __init__(self, x, actions, losses, k_actions: int):
        self.x = _as_matrix(x, "trial covariates")
        self.actions = np.asarray(actions, dtype=np.int64)
        self.losses = np.asarray(losses, dtype=np.float64)
        if self.actions.shape != (self.m,) or self.losses.shape != (self.m,):
            raise ValueError("actions and losses must align with the covariate rows")
        if k_actions < 1:
            raise ValueError("k_actions must be at least 1")
        self.k_actions = int(k_actions)
        if self.actions.min() < 0 or self.actions.max() >= self.k_actions:
            raise ValueError("action indices must lie in [0, k_actions)")
        if not np.all(np.isfinite(self.losses)):
            raise ValueError("trial losses must be finite")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def subset(self, indices: np.ndarray) -> "TrialDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return TrialDataset(self.x[idx], self.actions[idx], self.losses[idx], self.k_actions)


class TargetCovariates:
    """Covariate-only rows drawn from the target population; non-finite
    covariates are rejected at construction."""

    def __init__(self, rows):
        self.x = _as_matrix(rows, "target covariates")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


class LabeledPool:
    """Covariate rows labeled 0 (target) or 1 (trial), for the odds fit;
    non-finite covariates are rejected at construction."""

    def __init__(self, x, labels):
        self.x = _as_matrix(x, "pool covariates")
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (self.n,):
            raise ValueError("labels must align with the covariate rows")
        check_labels(self.labels)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def drop_feature(self, k: int) -> "LabeledPool":
        if not 0 <= k < self.dim:
            raise ValueError(f"feature index {k} out of range for d={self.dim}")
        return LabeledPool(np.delete(self.x, k, axis=1), self.labels)


class PolicySpec:
    """Action-probability rule for the evaluated policy.

    Three kinds are supported: ``constant`` (always play one action),
    ``uniform`` (equal mass on every action) and ``table`` (explicit per-row
    probability vectors aligned to a dataset's rows).
    """

    def __init__(self, kind: str, action: int | None = None, table=None):
        if kind not in ("constant", "uniform", "table"):
            raise ValueError(f"unknown policy kind: {kind!r}")
        self.kind = kind
        self.action = None if action is None else int(action)
        self.table = None
        if kind == "constant":
            if self.action is None or self.action < 0:
                raise ValueError("constant policy needs a nonnegative action index")
        elif kind == "table":
            t = np.asarray(table, dtype=np.float64)
            if t.ndim != 2 or t.shape[0] == 0:
                raise ValueError("policy table must be a nonempty 2-d array")
            if not np.all(np.isfinite(t)) or np.any(t < 0):
                raise ValueError("policy probabilities must be finite and nonnegative")
            if np.any(np.abs(t.sum(axis=1) - 1.0) > PROB_TOL):
                raise ValueError("policy probability rows must sum to 1")
            self.table = t

    @classmethod
    def constant(cls, action: int) -> "PolicySpec":
        return cls("constant", action=action)

    @classmethod
    def uniform(cls) -> "PolicySpec":
        return cls("uniform")

    @classmethod
    def from_table(cls, table) -> "PolicySpec":
        return cls("table", table=table)

    def prob_matrix(self, n_rows: int, k_actions: int) -> np.ndarray:
        """Per-row action probabilities as an (n_rows, k_actions) matrix; a
        constant or uniform policy's one row is broadcast read-only."""
        if self.kind == "constant":
            if self.action >= k_actions:
                raise ValueError("constant policy action exceeds the action count")
            return np.broadcast_to(np.eye(1, k_actions, self.action), (n_rows, k_actions))
        if self.kind == "uniform":
            return np.broadcast_to(1.0 / k_actions, (n_rows, k_actions))
        if self.table.shape != (n_rows, k_actions):
            raise ValueError(
                f"policy table shape {self.table.shape} does not match "
                f"({n_rows}, {k_actions})"
            )
        return self.table


class TrialDesign:
    """Covariate-free randomization probabilities of the trial."""

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] < 1:
            raise ValueError("design probabilities must be a nonempty vector")
        if not np.all(np.isfinite(p)) or np.any(p <= 0):
            raise ValueError("design probabilities must be finite and strictly positive")
        if abs(p.sum() - 1.0) > PROB_TOL:
            raise ValueError("design probabilities must sum to 1")
        self.probs = p

    @classmethod
    def uniform(cls, k_actions: int) -> "TrialDesign":
        if k_actions < 1:
            raise ValueError("k_actions must be at least 1")
        return cls(np.full(k_actions, 1.0 / k_actions))

    @property
    def k_actions(self) -> int:
        return self.probs.shape[0]


@dataclasses.dataclass(frozen=True)
class SplitResult:
    """Partition of a trial dataset into the weight-bound half D' and the
    calibration half D'', held as two index arrays; each half is built from
    ``trial`` when read."""

    trial: TrialDataset
    idx_prime: np.ndarray
    idx_double_prime: np.ndarray

    @property
    def d_prime(self) -> TrialDataset:
        return self.trial.subset(self.idx_prime)

    @property
    def d_double_prime(self) -> TrialDataset:
        return self.trial.subset(self.idx_double_prime)


def check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not math.isfinite(g) or g < 1.0:
        raise ValueError("gamma must be a finite real >= 1 (1 = perfectly calibrated)")
    if not math.isfinite(g * g):
        raise ValueError(f"gamma={g!r} is too large: its square overflows")
    return g


def check_l_max(l_max) -> float:
    """The declared loss-support upper bound: required and finite."""
    if l_max is None:
        raise ValueError("l_max (declared loss-support upper bound) is required")
    if not math.isfinite(float(l_max)):
        raise ValueError("l_max must be finite")
    return float(l_max)


def check_distinct(values, name: str) -> None:
    # sorted neighbours, as np.unique compares them, without its numpy.ma import
    # (a set of a million Python floats takes 30x longer); NaNs stay distinct
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError(f"{name} must be distinct")


def check_grid_points(points: int, name: str = "grid points") -> None:
    if points < 1:
        raise ValueError("need at least one grid point")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"need at most {MAX_GRID_POINTS} {name}")


def check_losses_below(losses, l_max) -> None:
    """Refuse a missing or non-finite ``l_max``, or one that is not strictly
    above every one of the trial ``losses``."""
    if not np.all(losses < check_l_max(l_max)):
        raise ValueError(f"trial losses must lie strictly below l_max={l_max}")


def validate_dataset(trial: TrialDataset, target: TargetCovariates):
    """Raise ``ValueError`` unless the trial and the target have the same
    covariate dimension. Each container checks its own values at
    construction, and ``check_losses_below`` checks the losses."""
    if trial.dim != target.dim:
        raise ValueError(f"covariate dimensions differ: trial d={trial.dim}, target d={target.dim}")


def sample_actions(prob_matrix: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one action per row from per-row probability vectors; the last
    action takes whatever mass the first k - 1 cumulative columns leave."""
    cum = np.cumsum(prob_matrix, axis=1)
    u = rng.random(prob_matrix.shape[0])
    return (u[:, None] >= cum[:, :-1]).sum(axis=1, dtype=np.int64)


def random_split(trial: TrialDataset, frac: float = 0.5, seed: int = 0) -> SplitResult:
    """Seeded random partition with |D'| = round(frac * m)."""
    check_open_unit(frac, "frac")
    m_prime = int(np.floor(frac * trial.m + 0.5))
    if m_prime < 1 or m_prime >= trial.m:
        raise ValueError(
            f"degenerate split: frac={frac} over m={trial.m} leaves an empty side"
        )
    perm = np.random.default_rng(seed).permutation(trial.m)
    idx_prime = np.sort(perm[:m_prime])
    idx_double = np.sort(perm[m_prime:])
    return SplitResult(trial, idx_prime, idx_double)


def matched_split(
    trial: TrialDataset, policy: PolicySpec, design: TrialDesign, seed: int = 0
) -> SplitResult:
    """Rejection-style partition: a sample joins the calibration half when a fresh
    policy draw reproduces its recorded action.

    Assumes the recorded actions were randomized covariate-free per ``design``.
    """
    if design.k_actions != trial.k_actions:
        raise ValueError("design action count does not match the trial dataset")
    probs = policy.prob_matrix(trial.m, trial.k_actions)
    rng = np.random.default_rng(seed)
    drawn = sample_actions(probs, rng)
    match = drawn == trial.actions
    idx_double = np.flatnonzero(match)
    idx_prime = np.flatnonzero(~match)
    if idx_double.size == 0 or idx_prime.size == 0:
        raise ValueError("degenerate matched split: one side is empty")
    return SplitResult(trial, idx_prime, idx_double)
