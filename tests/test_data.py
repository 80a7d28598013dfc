"""Tests for dataset containers, validation, and the splitting strategies."""

import math
import re

import numpy as np
import pytest

from limitcurves.data import (
    PolicySpec,
    TargetCovariates,
    TrialDataset,
    TrialDesign,
    check_losses_below,
    matched_split,
    random_split,
    sample_actions,
    validate_dataset,
)


def make_trial(m=10, d=2, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return TrialDataset(
        rng.normal(size=(m, d)), rng.integers(0, k, m), rng.normal(size=m), k
    )


class TestContainers:
    def test_rejects_out_of_range_actions(self):
        with pytest.raises(ValueError):
            TrialDataset([[0.0]], [2], [1.0], k_actions=2)

    def test_rejects_nonfinite_values(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="trial losses must be finite"):
                TrialDataset([[0.0]], [0], [bad], k_actions=1)
            with pytest.raises(ValueError, match="trial covariates must be finite"):
                TrialDataset([[bad]], [0], [1.0], k_actions=1)
            with pytest.raises(ValueError, match="target covariates must be finite"):
                TargetCovariates([[0.0, bad]])

    def test_one_dimensional_covariates_rejected(self):
        with pytest.raises(ValueError, match="trial covariates must be a 2-d array"):
            TrialDataset([0.0, 1.0], [0, 0], [1.0, 2.0], k_actions=1)
        with pytest.raises(ValueError, match="target covariates must be a 2-d array"):
            TargetCovariates([0.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TargetCovariates(np.empty((0, 2)))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PolicySpec.from_table([[0.5, 0.4]])
        with pytest.raises(ValueError):
            PolicySpec.from_table([[-0.1, 1.1]])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                PolicySpec.from_table([[bad, 0.5]])
        probs = PolicySpec.constant(1).prob_matrix(3, 2)
        assert np.array_equal(probs, [[0.0, 1.0]] * 3)

    def test_design_validation(self):
        with pytest.raises(ValueError):
            TrialDesign([0.5, 0.0, 0.5])
        with pytest.raises(ValueError):
            TrialDesign([0.6, 0.6])
        for bad in ([np.nan, 1.0], [np.inf, 0.5]):
            with pytest.raises(ValueError, match="finite"):
                TrialDesign(bad)
        assert TrialDesign.uniform(4).probs[0] == 0.25


class TestValidateDataset:
    def test_consistent_dimensions_pass(self):
        assert validate_dataset(make_trial(d=2), TargetCovariates(np.zeros((5, 2)))) is None

    def test_dimension_mismatch_flagged(self):
        with pytest.raises(ValueError, match="^covariate dimensions differ: trial d=2, target d=3$"):
            validate_dataset(make_trial(d=2), TargetCovariates(np.zeros((5, 3))))

    def test_only_cross_file_checks(self):
        trial = TrialDataset([[0.0]], [0], [1e300], 1)
        # the losses are not compared with anything
        validate_dataset(trial, TargetCovariates(np.zeros((1, 1))))
        with pytest.raises(ValueError, match="covariate dimensions differ"):
            validate_dataset(trial, TargetCovariates(np.zeros((1, 2))))

    def test_l_max_rule_is_shared(self):
        # evaluate reads no target, so it checks l_max through the same rule
        trial = TrialDataset([[0.0]], [0], [5.0], 1)
        check_losses_below(trial.losses, 6.0)
        for l_max, message in ((5.0, "trial losses must lie strictly below l_max=5.0"),
                               (math.nan, "l_max must be finite"),
                               (None, "l_max (declared loss-support upper bound) is required")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check_losses_below(trial.losses, l_max)


@pytest.mark.parametrize("k", [0, -1])
def test_uniform_design_needs_an_action(k):
    with pytest.raises(ValueError, match="^k_actions must be at least 1$"):
        TrialDesign.uniform(k)


class TestRandomSplit:
    def test_half_split_sizes(self):
        split = random_split(make_trial(m=10), frac=0.5, seed=1)
        assert split.d_prime.m == 5 and split.d_double_prime.m == 5

    def test_deterministic_replay(self):
        a = random_split(make_trial(m=20), frac=0.3, seed=9)
        b = random_split(make_trial(m=20), frac=0.3, seed=9)
        assert np.array_equal(a.idx_prime, b.idx_prime)
        assert np.array_equal(a.d_prime.losses, b.d_prime.losses)

    def test_partition(self):
        for seed in range(5):
            split = random_split(make_trial(m=17, seed=seed), frac=0.4, seed=seed)
            merged = np.sort(np.concatenate([split.idx_prime, split.idx_double_prime]))
            assert np.array_equal(merged, np.arange(17))

    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError):
            random_split(make_trial(m=1), frac=0.5, seed=0)
        with pytest.raises(ValueError):
            random_split(make_trial(m=10), frac=0.01, seed=0)


@pytest.mark.parametrize(
    "make_split",
    [
        lambda trial: random_split(trial, frac=0.3, seed=2),
        lambda trial: matched_split(trial, PolicySpec.uniform(), TrialDesign.uniform(3), seed=2),
    ],
    ids=["random", "matched"],
)
def test_halves_are_the_trial_rows_at_their_indices(make_split):
    trial = make_trial(m=30, d=3, k=3, seed=4)
    split = make_split(trial)
    assert split.trial is trial
    for half, idx in ((split.d_prime, split.idx_prime), (split.d_double_prime, split.idx_double_prime)):
        expected = trial.subset(idx)
        assert half.m == idx.size and half.k_actions == trial.k_actions
        assert np.array_equal(half.x, expected.x)
        assert np.array_equal(half.actions, expected.actions)
        assert np.array_equal(half.losses, expected.losses)


class TestMatchedSplit:
    def test_treat_all_uniform_fraction(self):
        """Uniform binary design: expected calibration fraction is 1/2."""
        rng = np.random.default_rng(10)
        m = 1000
        trial = TrialDataset(
            rng.normal(size=(m, 2)), rng.integers(0, 2, m), rng.normal(size=m), 2
        )
        design = TrialDesign.uniform(2)
        split = matched_split(trial, PolicySpec.constant(1), design, seed=3)
        frac = split.d_double_prime.m / m
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / m)

    def test_uniform_policy_fraction(self):
        rng = np.random.default_rng(11)
        m = 1000
        trial = TrialDataset(
            rng.normal(size=(m, 2)), rng.integers(0, 2, m), rng.normal(size=m), 2
        )
        split = matched_split(trial, PolicySpec.uniform(), TrialDesign.uniform(2), seed=4)
        frac = split.d_double_prime.m / m
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / m)

    def test_degenerate_when_all_actions_match_constant_policy(self):
        trial = TrialDataset(np.zeros((6, 1)), np.ones(6, dtype=int), np.zeros(6), 2)
        with pytest.raises(ValueError):
            matched_split(trial, PolicySpec.constant(1), TrialDesign.uniform(2), seed=0)

    def test_deterministic_replay(self):
        trial = make_trial(m=50, seed=2)
        a = matched_split(trial, PolicySpec.uniform(), TrialDesign.uniform(2), seed=7)
        b = matched_split(trial, PolicySpec.uniform(), TrialDesign.uniform(2), seed=7)
        assert np.array_equal(a.idx_double_prime, b.idx_double_prime)

    def test_partition(self):
        trial = make_trial(m=33, seed=3)
        split = matched_split(trial, PolicySpec.uniform(), TrialDesign.uniform(2), seed=1)
        merged = np.sort(np.concatenate([split.idx_prime, split.idx_double_prime]))
        assert np.array_equal(merged, np.arange(33))

    def test_per_sample_inclusion_probability(self):
        """Inclusion frequency matches sum_a p_design(a) * p_policy(a|x) per row."""
        rng = np.random.default_rng(12)
        m = 40
        design = TrialDesign([0.3, 0.7])
        p1 = rng.random(m)
        table = np.column_stack([1.0 - p1, p1])
        policy = PolicySpec.from_table(table)
        x = rng.normal(size=(m, 1))
        reps = 1500
        counts = np.zeros(m)
        for rep in range(reps):
            actions = (rng.random(m) < design.probs[1]).astype(int)
            trial = TrialDataset(x, actions, np.zeros(m), 2)
            try:
                split = matched_split(trial, policy, design, seed=rep)
            except ValueError:
                continue
            counts[split.idx_double_prime] += 1
        freq = counts / reps
        expected = design.probs[0] * table[:, 0] + design.probs[1] * table[:, 1]
        se = np.sqrt(expected * (1 - expected) / reps)
        assert np.all(np.abs(freq - expected) <= 4 * se + 1e-9)

    @pytest.mark.parametrize("kind", ["constant:0", "constant:2", "uniform", "0/1 table", "fractional table"])
    def test_split_is_the_drawn_split(self, kind):
        """Every policy splits as a draw by ``sample_actions`` from a generator
        seeded by ``seed``."""
        rng = np.random.default_rng(13)
        m, k = 60, 3
        onehot = np.eye(k)[rng.integers(0, k, m)]
        fractional = rng.dirichlet(np.ones(k), m)
        policy = {
            "constant:0": PolicySpec.constant(0),
            "constant:2": PolicySpec.constant(2),
            "uniform": PolicySpec.uniform(),
            "0/1 table": PolicySpec.from_table(onehot),
            "fractional table": PolicySpec.from_table(fractional),
        }[kind]
        for seed in range(40):
            trial = make_trial(m=m, k=k, seed=seed)
            split = matched_split(trial, policy, TrialDesign.uniform(k), seed=seed)
            drawn = sample_actions(policy.prob_matrix(m, k), np.random.default_rng(seed))
            assert np.array_equal(split.idx_double_prime, np.flatnonzero(drawn == trial.actions))
            assert np.array_equal(split.idx_prime, np.flatnonzero(drawn != trial.actions))

    @pytest.mark.parametrize(
        "seed, error, message",
        [(-1, ValueError, "^expected non-negative integer$"), (1.5, TypeError, "entropy")],
    )
    @pytest.mark.parametrize(
        "policy", [PolicySpec.constant(1), PolicySpec.uniform()], ids=["constant", "uniform"]
    )
    def test_bad_seed_refused(self, seed, error, message, policy):
        with pytest.raises(error, match=message):
            matched_split(make_trial(m=30, k=2, seed=0), policy, TrialDesign.uniform(2), seed=seed)
