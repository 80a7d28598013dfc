"""Inverse-probability-of-sampling-weighting baseline: expected-loss value and
empirical-CDF quantile limits. These carry no miscalibration certificate and
serve as the comparison point for the certified curves."""

from __future__ import annotations

import numpy as np

from .conformal import CalibrationSet
from .data import PolicySpec, TrialDataset, TrialDesign, check_open_unit
from .weights import shift_weights


def ipsw_value(
    trial: TrialDataset,
    odds,
    policy: PolicySpec,
    design: TrialDesign,
    n_target: int,
) -> float:
    """Reweighted mean loss (1/n) * sum_i odds_i * ratio_i * loss_i."""
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    weights = shift_weights(trial, odds, policy, design)
    return float(np.sum(weights * trial.losses) / n_target)


def ipsw_cdf(
    trial: TrialDataset,
    odds,
    policy: PolicySpec,
    design: TrialDesign,
    n_target: int,
    ell: float,
) -> float:
    """Reweighted empirical CDF at ``ell``; deliberately not clipped to 1."""
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    weights = shift_weights(trial, odds, policy, design)
    return float(np.sum(weights * (trial.losses <= ell)) / n_target)


def ipsw_quantile(
    trial: TrialDataset,
    odds,
    policy: PolicySpec,
    design: TrialDesign,
    n_target: int,
    alpha: float,
    normalized: bool = False,
) -> float | None:
    """Smallest observed loss where the reweighted CDF reaches 1 - alpha.

    ``None`` when the total mass never reaches the level. ``normalized=True``
    rescales the weights to total mass 1 before the scan.
    """
    check_open_unit(alpha, "alpha")
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    weights = shift_weights(trial, odds, policy, design)
    mass = float(weights.sum()) if normalized else n_target
    if mass <= 0:
        return None
    cal = CalibrationSet.from_shift_weights(trial.losses, weights)
    # evaluate only at the last index of each tie group (right continuity)
    reached = (np.cumsum(cal.lower) / mass)[cal.group_ends] >= 1.0 - alpha
    if not reached.any():
        return None
    return float(cal.losses[cal.group_ends[int(np.argmax(reached))]])
