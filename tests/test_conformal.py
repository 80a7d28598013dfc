"""Tests for the certified-quantile engine.

Small instances are checked against direct evaluations of the defining sums;
grid behavior is checked against independent brute-force scans.
"""

import dataclasses
import math
import re
from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest

from limitcurves.conformal import (
    MAX_GRID_POINTS,
    CalibrationSet,
    LimitPoint,
    WeightBoundSet,
    certify,
    default_alpha_grid,
    default_beta_grid,
    limit,
    limit_curve,
    quantile,
    stand_in_cdf,
    weight_bound,
)
from limitcurves.data import PolicySpec, TrialDataset, TrialDesign, check_losses_below, matched_split, random_split


def unit_cal(losses):
    losses = np.asarray(losses, dtype=float)
    return CalibrationSet.from_shift_weights(losses, np.ones(losses.shape[0]))


class TestWeightBound:
    def test_hand_case(self):
        ws = WeightBoundSet([0.5, 1.0, 2.0, 8.0])
        assert weight_bound(ws, 0.5) == 2.0

    def test_infinite_branch(self):
        ws = WeightBoundSet([0.5, 1.0, 2.0, 8.0])
        assert math.isinf(weight_bound(ws, 0.1))

    def test_tiny_beta_reads_past_the_last_weight(self):
        # 1 - 1e-300 rounds to 1, so the order statistic is the (m + 1)-th
        assert math.isinf(weight_bound(WeightBoundSet([0.5, 1.0, 2.0, 8.0]), 1e-300))

    def test_beta_near_one_reads_the_smallest_weight(self):
        assert weight_bound(WeightBoundSet([8.0, 0.5, 2.0, 1.0]), 1 - 1e-16) == 0.5

    def test_single_weight(self):
        assert weight_bound(WeightBoundSet([3.5]), 0.5) == 3.5

    def test_sorts_input(self):
        ws = WeightBoundSet([8.0, 0.5, 2.0, 1.0])
        assert weight_bound(ws, 0.5) == 2.0

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            weight_bound(WeightBoundSet([1.0]), 0.0)

    def test_mini_guarantee(self):
        """Exchangeable draws: the bound holds with frequency >= 1 - beta."""
        rng = np.random.default_rng(42)
        m_prime = 19
        for beta, expect in ((0.1, 0.9), (0.3, 0.7)):
            hits = 0
            reps = 2000
            for _ in range(reps):
                draws = rng.lognormal(0.0, 1.0, m_prime + 1)
                bound = weight_bound(WeightBoundSet(draws[:-1]), beta)
                hits += draws[-1] <= bound
            assert hits / reps >= expect - 3 * math.sqrt(expect * (1 - expect) / reps)


class TestStandInCdf:
    def test_two_sample_hand_case(self):
        cal = CalibrationSet.from_shift_weights([1.0, 2.0], [1.0, 1.0])
        assert stand_in_cdf(cal, 1.0, 1.5) == 1.0 / 3.0

    def test_below_all_losses(self):
        cal = unit_cal([1.0, 2.0, 3.0])
        assert stand_in_cdf(cal, 1.0, 0.5) == 0.0

    def test_infinite_slot_weight(self):
        cal = unit_cal([1.0, 2.0])
        assert stand_in_cdf(cal, math.inf, 5.0) == 0.0

    def test_unit_scale_invariance(self):
        cal1 = CalibrationSet.from_shift_weights([1.0, 2.0], [1.0, 1.0])
        cal10 = CalibrationSet.from_shift_weights([1.0, 2.0], [10.0, 10.0])
        assert stand_in_cdf(cal1, 1.0, 1.5) == stand_in_cdf(cal10, 10.0, 1.5)

    def test_matches_direct_sums_on_small_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            losses = rng.integers(0, 6, m).astype(float)
            lower = rng.random(m)
            upper = lower + rng.random(m)
            w = float(rng.random() + 0.01)
            cal = CalibrationSet(losses, lower, upper)
            for ell in np.concatenate([losses, losses - 0.5, losses + 0.5]):
                num = lower[losses <= ell].sum()
                den = num + upper[losses > ell].sum() + w
                assert stand_in_cdf(cal, w, float(ell)) == pytest.approx(num / den, rel=1e-12)

    def test_step_function_right_continuous_nondecreasing(self):
        rng = np.random.default_rng(2)
        losses = rng.integers(0, 5, 8).astype(float)
        lower = rng.random(8)
        cal = CalibrationSet(losses, lower, lower + rng.random(8))
        grid = np.linspace(-1.0, 6.0, 200)
        values = [stand_in_cdf(cal, 0.7, g) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        for ell in np.unique(losses):
            at = stand_in_cdf(cal, 0.7, float(ell))
            just_after = stand_in_cdf(cal, 0.7, float(ell) + 1e-9)
            just_before = stand_in_cdf(cal, 0.7, float(ell) - 1e-9)
            assert at == pytest.approx(just_after, rel=1e-9)
            assert at >= just_before


class TestQuantile:
    def test_nine_sample_hand_case(self):
        cal = unit_cal(np.arange(1.0, 10.0))
        assert quantile(cal, 1.0, 0.2, 0.05) == 9.0

    def test_threshold_above_supremum(self):
        cal = unit_cal(np.arange(1.0, 10.0))
        assert quantile(cal, 1.0, 0.01, 0.005) is None

    def test_integer_weight_bound(self):
        cal = unit_cal(np.arange(1.0, 10.0))
        assert quantile(cal, 1, 0.2, 0.05) == 9.0

    def test_infinite_weight_bound(self):
        cal = unit_cal(np.arange(1.0, 10.0))
        assert quantile(cal, math.inf, 0.5, 0.25) is None

    def test_bad_levels(self):
        cal = unit_cal([1.0])
        with pytest.raises(ValueError):
            quantile(cal, 1.0, 0.2, 0.3)

    def test_ties_counted_together(self):
        cal = unit_cal([1.0, 1.0, 1.0, 5.0])
        # at ell=1 the CDF is 3/5 with w=1
        assert quantile(cal, 1.0, 0.5, 0.1) == 1.0

    def test_level_next_to_one_is_finite(self):
        # (1 - alpha) / (1 - beta) rounds to 1 here, but (1 - alpha) /
        # (alpha - beta) = 5e16 is finite: out of reach unless the weight
        # bound is 0, where the CDF reaches 1 at the largest loss
        cal = unit_cal(np.arange(1.0, 10.0))
        assert quantile(cal, 1.0, 3e-17, 1e-17) is None
        assert quantile(cal, 0.0, 3e-17, 1e-17) == 9.0


class TestLimit:
    def test_nine_sample_hand_case(self):
        cal = unit_cal(np.arange(1.0, 10.0))
        ws = WeightBoundSet(np.ones(9))
        grid = np.array([0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18])
        assert limit(cal, ws, 0.2, 1.0, grid) == 9.0

    def test_level_within_rounding_of_the_cdf_is_reached(self):
        """At gamma 2 the stand-in CDF at the loss 1.0 is (50 / 2) / (50 / 2 +
        2 * 3) = 25/31, the level (1 - 0.2) / (1 - 0.008) in decimals; in
        exact arithmetic on the float inputs the level lies just below it.
        So 1.0 is the limit, in the curve too."""
        cal = CalibrationSet.from_shift_weights([1.0], [50.0])
        ws = WeightBoundSet(np.full(239, 3.0))
        assert weight_bound(ws, 0.008) == 3.0
        assert (1 - Fraction(0.2)) / (1 - Fraction(0.008)) <= Fraction(25, 31)
        assert limit(cal, ws, 0.2, 2.0, [0.008]) == 1.0
        (point,) = limit_curve(cal, ws, [0.2], (2.0,), 5.0).points
        assert point == LimitPoint(gamma=2.0, alpha=0.2, limit=1.0, trivial=False)

    def test_overflowing_level_gives_no_limit_and_no_warning(self):
        """A beta within 1e-308 of alpha overflows the level to inf, which
        no ratio reaches; the division says nothing about it."""
        cal = unit_cal(np.arange(1.0, 10.0))
        ws = WeightBoundSet(np.ones(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert limit(cal, ws, 1e-300, 1.0, [np.nextafter(1e-300, 0)]) is None

    def test_huge_gamma_gives_no_finite_limit(self):
        cal = unit_cal(np.arange(1.0, 10.0))
        ws = WeightBoundSet(np.ones(9))
        assert limit(cal, ws, 0.2, 1e12) is None

    def test_alpha_near_one_returns_smallest_loss(self):
        rng = np.random.default_rng(3)
        losses = rng.normal(size=9)
        cal = unit_cal(losses)
        ws = WeightBoundSet(np.ones(9))
        assert limit(cal, ws, 0.99, 1.0) == float(losses.min())

    def test_equals_min_over_quantile_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m2 = int(rng.integers(1, 12))
            m1 = int(rng.integers(1, 12))
            losses = rng.normal(size=m2)
            base = rng.random(m2) + 0.05
            cal = CalibrationSet.from_shift_weights(losses, base)
            ws = WeightBoundSet(rng.random(m1) + 0.05)
            alpha = float(rng.uniform(0.1, 0.9))
            gamma = float(rng.uniform(1.0, 3.0))
            betas = default_beta_grid(alpha, 17)
            scaled = CalibrationSet(cal.losses, cal.lower / gamma, cal.upper * gamma)
            ws_scaled = WeightBoundSet(ws.upper * gamma)
            candidates = [
                quantile(scaled, weight_bound(ws_scaled, float(b)), alpha, float(b))
                for b in betas
            ]
            finite = [c for c in candidates if c is not None]
            expected = min(finite) if finite else None
            assert limit(cal, ws, alpha, gamma, betas) == expected

    def test_grid_outside_open_interval_rejected(self):
        cal = unit_cal([1.0, 2.0])
        ws = WeightBoundSet([1.0])
        with pytest.raises(ValueError):
            limit(cal, ws, 0.2, 1.0, np.array([0.2]))
        with pytest.raises(ValueError):
            limit(cal, ws, 0.2, 1.0, np.array([]))

    def test_monotone_in_alpha_and_gamma(self):
        rng = np.random.default_rng(5)
        losses = rng.normal(size=60)
        base = rng.lognormal(0.0, 0.7, 60)
        cal = CalibrationSet.from_shift_weights(losses, base)
        ws = WeightBoundSet(rng.lognormal(0.0, 0.7, 40))
        big = 1e9
        alphas = [0.1, 0.2, 0.3, 0.5, 0.7]
        for gamma in (1.0, 1.5, 2.0):
            values = [limit(cal, ws, a, gamma) for a in alphas]
            values = [big if v is None else v for v in values]
            assert all(b <= a for a, b in zip(values, values[1:]))
        for a in alphas:
            values = [limit(cal, ws, a, g) for g in (1.0, 1.3, 2.0, 4.0)]
            values = [big if v is None else v for v in values]
            assert all(b >= x for x, b in zip(values, values[1:]))


class TestClassicalReduction:
    def test_unit_weights_match_split_conformal(self):
        """All weights 1 and gamma 1 reduce to the classical split-conformal
        quantile once the grid contains the exhaustively optimal level."""
        rng = np.random.default_rng(6)
        losses = np.sort(rng.normal(size=20))
        cal = unit_cal(losses)
        ws = WeightBoundSet(np.ones(255))
        grid = np.array([1.0 / 256, 1.0 / 128, 1.0 / 64, 1.0 / 32])
        for alpha in (0.1, 0.2, 0.5):
            classical = losses[math.ceil((1.0 - alpha) * 21.0) - 1]
            betas = grid[grid < alpha]
            assert limit(cal, ws, alpha, 1.0, betas) == classical


class TestLimitCurve:
    def make_inputs(self):
        rng = np.random.default_rng(7)
        losses = rng.normal(size=50)
        base = rng.lognormal(0.0, 0.5, 50)
        cal = CalibrationSet.from_shift_weights(losses, base)
        ws = WeightBoundSet(rng.lognormal(0.0, 0.5, 40))
        return cal, ws, float(losses.max()) + 1.0

    def test_every_gamma_column_matches_limit(self):
        """Each cell, at every gamma, is the scalar ``limit`` at its (gamma,
        alpha), with a trivial one at ``l_max``. The columns are keyed by the
        ``LimitPoint`` fields, gamma-major, and ``points`` reads their rows."""
        cal, ws, l_max = self.make_inputs()
        alphas = [0.1, 0.2, 0.4]
        gammas = (1.0, 2.0, 8.0)
        curve = limit_curve(cal, ws, alphas, gammas=gammas, l_max=l_max)
        assert list(curve.columns) == [f.name for f in dataclasses.fields(LimitPoint)]
        rows = [
            LimitPoint(**{name: column[i].item() for name, column in curve.columns.items()})
            for i in range(len(gammas) * len(alphas))
        ]
        assert curve.points == tuple(rows)
        assert [(p.gamma, p.alpha) for p in rows] == [(g, a) for g in gammas for a in alphas]
        for point in rows:
            direct = limit(cal, ws, point.alpha, point.gamma)
            if point.trivial:
                assert direct is None and point.limit == l_max
            else:
                assert direct == point.limit
        assert {p.trivial for p in rows} == {False, True}

    def test_curves_ordered_by_gamma(self):
        cal, ws, l_max = self.make_inputs()
        curve = limit_curve(cal, ws, gammas=(1.0, 2.0), l_max=l_max)
        ones = [p for p in curve.points if p.gamma == 1.0]
        twos = [p for p in curve.points if p.gamma == 2.0]
        for p1, p2 in zip(ones, twos):
            assert p2.limit >= p1.limit

    def test_informativeness_cutoff(self):
        """m'=24 all-ones bound weights make alpha=0.05 the first feasible
        grid point, so informativeness lands exactly at 0.95."""
        cal = unit_cal(np.arange(500.0))
        ws = WeightBoundSet(np.ones(24))
        curve = limit_curve(cal, ws, l_max=1000.0, gammas=(1.0,))
        assert curve.informativeness[1.0] == pytest.approx(0.95)

    def test_informativeness_zero_when_all_trivial(self):
        cal = unit_cal([1.0, 2.0])
        ws = WeightBoundSet([1.0])
        curve = limit_curve(cal, ws, l_max=10.0, gammas=(1e12,))
        assert curve.informativeness[1e12] == 0.0
        assert all(p.trivial and p.limit == 10.0 for p in curve.points)

    def test_requires_l_max_above_losses(self):
        cal = unit_cal([1.0, 2.0])
        ws = WeightBoundSet([1.0])
        message = "trial losses must lie strictly below l_max=2.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            limit_curve(cal, ws, l_max=2.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_losses_below(cal.losses, 2.0)
        with pytest.raises(ValueError):
            limit_curve(cal, ws, l_max=None)
        for l_max in (math.inf, math.nan):
            with pytest.raises(ValueError, match="l_max must be finite"):
                limit_curve(cal, ws, l_max=l_max)

    def test_repeated_alpha_or_gamma_refused(self):
        cal, ws, l_max = self.make_inputs()
        with pytest.raises(ValueError, match="^alpha grid must be distinct$"):
            limit_curve(cal, ws, alpha_grid=[0.5, 0.5], l_max=l_max)
        with pytest.raises(ValueError, match="^gammas must be distinct$"):
            limit_curve(cal, ws, gammas=(2.0, 2.0), l_max=l_max)

    def test_monotone_in_alpha_with_default_grids(self):
        cal, ws, l_max = self.make_inputs()
        curve = limit_curve(cal, ws, gammas=(1.0, 1.7), l_max=l_max)
        for g in curve.gammas:
            points = [p for p in curve.points if p.gamma == g]
            assert all(
                b.limit <= a.limit for a, b in zip(points, points[1:])
            ), "limits must be nonincreasing in alpha"


    def test_level_cap_bounds_memory_of_long_alpha_grids(self):
        """30000 alphas run in blocks of at most the level cap. One kernel
        call for all of them would hold 1.47 million levels and peaked at
        106 MiB; the blocks and the curve's columns peak at 6.7 MiB. One
        ``LimitPoint`` object per cell peaked at 9.7 MiB."""
        rng = np.random.default_rng(0)
        cal = CalibrationSet.from_shift_weights(
            rng.standard_normal(2000), rng.exponential(size=2000)
        )
        ws = WeightBoundSet(rng.exponential(size=2000))
        alphas = np.arange(1, 30_001) / 30_002.0
        tracemalloc.start()
        try:
            curve = limit_curve(cal, ws, alphas, (1.0, 2.0), l_max=100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve.points) == 60_000
        assert peak < 8 * 2**20


class TestGrids:
    def test_default_alpha_grid(self):
        grid = default_alpha_grid()
        assert grid[0] == 0.01 and grid[-1] == 0.99 and grid.shape == (99,)

    def test_default_beta_grid_inside_open_interval(self):
        for alpha in (0.05, 0.2, 0.9):
            grid = default_beta_grid(alpha)
            assert grid.shape == (49,)
            assert grid[0] > 0 and grid[-1] < alpha

    def test_default_beta_grid_point_cap(self):
        assert default_beta_grid(0.5, MAX_GRID_POINTS).shape == (MAX_GRID_POINTS,)
        for points in (MAX_GRID_POINTS + 1, 10**15):
            with pytest.raises(ValueError, match="at most 1000000 grid points"):
                default_beta_grid(0.5, points)
        with pytest.raises(ValueError, match="^need at least one grid point$"):
            default_beta_grid(0.5, 0)

    def test_sorted_tie_order_stable(self):
        cal = CalibrationSet([2.0, 1.0, 2.0], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert list(cal.lower) == [0.2, 0.1, 0.3]


class TestCertify:
    """The split -> shift weights -> sets pipeline."""

    POLICY = PolicySpec.constant(1)
    DESIGN = TrialDesign([0.25, 0.75])

    @staticmethod
    def trial_and_odds(m=40, seed=0):
        rng = np.random.default_rng(seed)
        x, actions, losses = rng.normal(size=(m, 2)), rng.integers(0, 2, m), rng.normal(size=m)
        return TrialDataset(x, actions, losses, 2), rng.lognormal(0.0, 1.0, m)

    @staticmethod
    def weights_by_loss(cal):
        """The calibration weights keyed by their (distinct, continuous) loss."""
        return dict(zip(cal.losses.tolist(), cal.lower.tolist()))

    def test_matched_split_weights_are_plain_odds(self):
        trial, odds = self.trial_and_odds()
        cal, ws, split = certify(trial, odds, self.POLICY, self.DESIGN, "matched", seed=3)
        expected = matched_split(trial, self.POLICY, self.DESIGN, seed=3)
        assert np.array_equal(split.idx_double_prime, expected.idx_double_prime)
        double = split.idx_double_prime
        assert self.weights_by_loss(cal) == dict(
            zip(trial.losses[double].tolist(), odds[double].tolist())
        )
        assert np.array_equal(cal.lower, cal.upper)
        assert np.array_equal(ws.upper, np.sort(odds[split.idx_prime]))

    def test_random_split_weights_are_odds_times_ratio(self):
        trial, odds = self.trial_and_odds(seed=1)
        cal, ws, split = certify(trial, odds, self.POLICY, self.DESIGN, "random", 0.3, seed=5)
        expected = random_split(trial, frac=0.3, seed=5)
        assert np.array_equal(split.idx_prime, expected.idx_prime)
        ratio = np.where(trial.actions == 1, 1.0 / 0.75, 0.0)
        double = split.idx_double_prime
        assert self.weights_by_loss(cal) == dict(
            zip(trial.losses[double].tolist(), (odds * ratio)[double].tolist())
        )
        assert np.array_equal(ws.upper, np.sort((odds * ratio)[split.idx_prime]))

    @pytest.mark.parametrize("strategy", ["matched", "random"])
    def test_builds_no_trial_dataset(self, strategy, monkeypatch):
        """The calibration losses are read from the trial at the split's
        indices; no half is copied into a new, re-checked dataset."""
        trial, odds = self.trial_and_odds(seed=6)
        built = []
        init = TrialDataset.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TrialDataset, "__init__", counting_init)
        cal, _, split = certify(trial, odds, self.POLICY, self.DESIGN, strategy, seed=7)
        assert built == []
        assert self.weights_by_loss(cal).keys() == set(trial.losses[split.idx_double_prime].tolist())

    @pytest.mark.parametrize("strategy", ["matched", "random"])
    def test_set_sizes_equal_split_sizes(self, strategy):
        trial, odds = self.trial_and_odds(m=57, seed=2)
        cal, ws, split = certify(trial, odds, PolicySpec.uniform(), self.DESIGN, strategy, seed=4)
        assert cal.size == split.d_double_prime.m and ws.size == split.d_prime.m
        assert cal.size + ws.size == trial.m

    @pytest.mark.parametrize("strategy", ["matched", "random"])
    @pytest.mark.parametrize(
        "bad", [np.ones(39), *(np.r_[v, np.ones(39)] for v in (0.0, -1.0, np.nan, np.inf))]
    )
    def test_bad_odds_rejected(self, strategy, bad):
        trial, _ = self.trial_and_odds()
        with pytest.raises(ValueError, match="odds"):
            certify(trial, bad, self.POLICY, self.DESIGN, strategy)

    @pytest.mark.parametrize("m", [25_000, 100_000])
    @pytest.mark.parametrize("policy", [PolicySpec.constant(1), PolicySpec.uniform()], ids=["constant", "uniform"])
    @pytest.mark.parametrize("split, bytes_per_row", [("random", 40), ("matched", 32)], ids=["random", "matched"])
    def test_certify_peak_memory(self, split, bytes_per_row, policy, m):
        """Each per-row array is held once: one sorted weight array serves as
        both calibration bounds, the split's halves come from one mask, and
        the suffix sums have no shifted copy. Peaks per trial row were 52
        bytes (random) and 44 (matched) with those copies, 36.5 and 28.5
        without; a constant or uniform policy's row is broadcast, not copied
        (the matched split peaked at 64 bytes per row with an (m, k) matrix)."""
        trial, odds = self.trial_and_odds(m=m, seed=8)
        design = TrialDesign.uniform(2)
        certify(trial, odds, policy, design, split)
        tracemalloc.start()
        try:
            certify(trial, odds, policy, design, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_row * m

    def test_unknown_split_rejected(self):
        trial, odds = self.trial_and_odds()
        with pytest.raises(ValueError, match="unknown split"):
            certify(trial, odds, self.POLICY, self.DESIGN, "stratified")
