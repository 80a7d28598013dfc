"""Per-sample distribution-shift weights under a declared miscalibration factor."""

from __future__ import annotations

import dataclasses

import numpy as np

from .data import PolicySpec, TrialDataset, TrialDesign, check_gamma, check_odds


@dataclasses.dataclass(frozen=True)
class WeightPair:
    """Lower and upper shift weights for one sample."""

    lower: float
    upper: float


def action_probability_ratios(
    policy: PolicySpec, design: TrialDesign, trial: TrialDataset
) -> np.ndarray:
    """Vector of p_policy(a_i|x_i) / p_design(a_i) over all trial rows."""
    if design.k_actions != trial.k_actions:
        raise ValueError("design action count does not match the trial dataset")
    probs = policy.prob_matrix(trial.m, trial.k_actions)
    return probs[np.arange(trial.m), trial.actions] / design.probs[trial.actions]


def trial_odds(trial: TrialDataset, odds) -> np.ndarray:
    """Selection odds as a float vector, checked to be aligned with the trial
    rows, strictly positive and finite."""
    values = np.asarray(odds, dtype=np.float64)
    if values.shape != (trial.m,):
        raise ValueError(
            f"odds must align with the {trial.m} trial rows, got shape {values.shape}"
        )
    check_odds(values, "odds")
    return values


def shift_weights(
    trial: TrialDataset, odds, policy: PolicySpec, design: TrialDesign
) -> np.ndarray:
    """Covariate-shift weights odds_i * p_policy(a_i|x_i) / p_design(a_i).

    Samples kept by a matched split carry ratio 1 instead: their actions
    already follow the policy, so their weights are :func:`trial_odds`.
    """
    return trial_odds(trial, odds) * action_probability_ratios(policy, design, trial)


def bounded_weights(odds: float, ratio: float, gamma: float) -> WeightPair:
    """Weight pair (odds*ratio/gamma, gamma*odds*ratio) bracketing the unknown shift."""
    check_odds(odds, "odds")
    if ratio < 0:
        raise ValueError("ratio must be nonnegative")
    g = check_gamma(gamma)
    base = odds * ratio
    return WeightPair(base / g, base * g)
