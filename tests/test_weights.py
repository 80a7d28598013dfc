"""Tests for distribution-shift weight construction."""

import numpy as np
import pytest

from limitcurves.data import PolicySpec, TrialDataset, TrialDesign
from limitcurves.weights import (
    action_probability_ratios,
    bounded_weights,
    shift_weights,
    trial_odds,
)


def two_arm_trial(actions):
    m = len(actions)
    return TrialDataset(np.zeros((m, 1)), actions, np.arange(m, dtype=float), 2)


class TestPolicyRatio:
    """The action-probability ratio p_policy(a|x) / p_design(a)."""

    def test_treat_all_uniform_binary(self):
        ratios = action_probability_ratios(
            PolicySpec.constant(1), TrialDesign.uniform(2), two_arm_trial([1, 0])
        )
        assert np.array_equal(ratios, [2.0, 0.0])

    def test_policy_equals_design(self):
        trial = TrialDataset(np.zeros((3, 1)), [0, 1, 2], np.zeros(3), 3)
        ratios = action_probability_ratios(PolicySpec.uniform(), TrialDesign.uniform(3), trial)
        assert np.array_equal(ratios, [1.0, 1.0, 1.0])

    def test_matched_strategy_is_one(self):
        """Matched-split samples carry their plain odds (ratio 1)."""
        odds = np.array([0.5, 2.0, 4.0])
        assert np.array_equal(trial_odds(two_arm_trial([0, 1, 0]), odds), odds)

    def test_out_of_range_action(self):
        """A three-action trial against a two-action design is refused."""
        trial = TrialDataset(np.zeros((3, 1)), [0, 1, 2], np.zeros(3), 3)
        with pytest.raises(ValueError, match="action count"):
            action_probability_ratios(PolicySpec.uniform(), TrialDesign.uniform(2), trial)

    def test_hand_computed_ratios(self):
        design = TrialDesign([0.25, 0.75])
        ratios = action_probability_ratios(
            PolicySpec.constant(1), design, two_arm_trial([0, 1, 1, 0])
        )
        assert np.array_equal(ratios, [0.0, 4.0 / 3.0, 4.0 / 3.0, 0.0])


class TestShiftWeights:
    def test_odds_times_ratio(self):
        odds = np.array([0.5, 2.0, 3.0])
        weights = shift_weights(
            two_arm_trial([1, 0, 1]), odds, PolicySpec.constant(1), TrialDesign([0.25, 0.75])
        )
        np.testing.assert_allclose(weights, [2.0 / 3.0, 0.0, 4.0], rtol=1e-15)

    @pytest.mark.parametrize(
        "odds, message",
        [
            (np.ones(2), "align"),
            (np.ones((3, 1)), "align"),
            (np.array([1.0, 0.0, 1.0]), "positive"),
            (np.array([1.0, -2.0, 1.0]), "positive"),
            (np.array([1.0, np.nan, 1.0]), "finite"),
            (np.array([np.inf, 1.0, 1.0]), "finite"),
        ],
    )
    def test_bad_odds_rejected(self, odds, message):
        trial = two_arm_trial([1, 0, 1])
        with pytest.raises(ValueError, match=message):
            shift_weights(trial, odds, PolicySpec.uniform(), TrialDesign.uniform(2))
        with pytest.raises(ValueError, match=message):
            trial_odds(trial, odds)


class TestBoundedWeights:
    def test_calibrated_identity(self):
        pair = bounded_weights(1.0, 1.0, 1.0)
        assert pair.lower == 1.0 and pair.upper == 1.0

    def test_hand_case(self):
        pair = bounded_weights(2.0, 2.0, 2.0)
        assert pair.lower == 2.0 and pair.upper == 8.0

    def test_zero_ratio(self):
        pair = bounded_weights(3.0, 0.0, 2.0)
        assert pair.lower == 0.0 and pair.upper == 0.0

    def test_rejects_nonpositive_odds(self):
        with pytest.raises(ValueError):
            bounded_weights(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bounded_weights(-1.0, 1.0, 1.0)

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            bounded_weights(1.0, 1.0, 0.5)

    def test_gamma_squared_links_bounds(self):
        # exact with a dyadic factor, tight numerically otherwise
        pair = bounded_weights(1.7, 0.9, 2.0)
        assert pair.lower * 4.0 == pair.upper
        pair = bounded_weights(1.7, 0.9, 1.9)
        assert pair.lower * 1.9**2 == pytest.approx(pair.upper, rel=1e-12)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(1)
        for odds, ratio in zip(rng.lognormal(0.0, 1.0, 50), rng.random(50) * 2):
            prev = bounded_weights(odds, ratio, 1.0)
            for gamma in (1.5, 2.0, 4.0):
                pair = bounded_weights(odds, ratio, gamma)
                assert pair.lower <= prev.lower and pair.upper >= prev.upper
                prev = pair
