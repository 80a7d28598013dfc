"""Inverse-probability-of-sampling-weighting baseline: expected-loss value and
empirical-CDF quantile limits. These carry no miscalibration certificate and
serve as the comparison point for the certified curves."""

from __future__ import annotations

import numpy as np

from .conformal import CalibrationSet, _none_if_inf, _scan_arrays, _stop_losses
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
    return _ipsw_value(trial.losses, shift_weights(trial, odds, policy, design), n_target)


def _ipsw_value(losses, weights, n_target) -> float:
    """``ipsw_value`` from the trial losses and their ``shift_weights``."""
    return float(np.sum(weights * losses) / n_target)


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
    weights = shift_weights(trial, odds, policy, design)
    return _none_if_inf(_ipsw_quantiles(trial.losses, weights, n_target, [alpha], normalized)[0])


def _ipsw_quantiles(losses, weights, n_target, alphas, normalized) -> np.ndarray:
    """``ipsw_quantile``, with ``inf`` for None, at each checked alpha from the
    trial losses and their ``shift_weights``: the kernel scans the reweighted
    CDF as a stand-in CDF with zero suffix and the mass in the out-of-sample
    weight's slot."""
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    mass = float(weights.sum()) if normalized else n_target
    cal = CalibrationSet.from_shift_weights(losses, weights)
    scan = _scan_arrays(cal.losses, cal.lower, np.zeros(cal.size), cal.group_ends)
    thresholds = 1.0 - np.asarray(alphas, dtype=np.float64)[:, None]
    return _stop_losses(scan, np.full_like(thresholds, mass), thresholds)
