"""Tests for the synthetic lab: generators, odds oracles, miscoverage harness."""

import math
import os

import numpy as np
import pytest
import scipy.stats

from limitcurves import forks, simlab
from limitcurves.data import PolicySpec, TrialDesign
from limitcurves.simlab import (
    POPULATIONS,
    CertifiedMethod,
    IpswMethod,
    SimScenario,
    loss_mean,
    miscoverage_gap,
    run_rng,
    sample_losses,
    sample_pool,
    sample_target,
    sample_trial,
    scenario,
    true_miscalibration,
    true_odds,
    true_odds_with_u,
)


class TestGenerators:
    def test_population_a_moments(self):
        params = POPULATIONS["A"]
        n = 20000
        covs, u = sample_target(params, n, seed=0)
        draws = np.column_stack([covs.x, u])
        means = draws.mean(axis=0)
        variances = draws.var(axis=0)
        for j, (mu, var) in enumerate(
            [(0.5, 1.0), (0.5, 1.0), (0.5, 1.0)]
        ):
            assert abs(means[j] - mu) <= 4 * math.sqrt(var / n)
            assert abs(variances[j] - var) <= 4 * var * math.sqrt(2.0 / (n - 1))

    def test_deterministic_draws(self):
        a, ua = sample_target(POPULATIONS["B"], 100, seed=5)
        b, ub = sample_target(POPULATIONS["B"], 100, seed=5)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(ua, ub)

    def test_loss_mean_formula(self):
        assert loss_mean(1, np.array([1.0, 1.0]), 0.0) == 2.0
        assert loss_mean(0, np.array([3.0, -0.5]), 9.0) == 0.5
        x = np.array([[2.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(loss_mean(np.array([1, 0]), x, np.array([0.5, 0.5])), [5.5, 1.0])

    def test_loss_noise_is_unit_variance(self):
        rng = np.random.default_rng(11)
        m = 20000
        x = np.tile([1.5, -0.5], (m, 1))
        actions = np.ones(m, dtype=int)
        u = np.full(m, 0.25)
        residuals = sample_losses(actions, x, u, rng) - loss_mean(actions, x, u)
        assert abs(residuals.mean()) <= 4 / math.sqrt(m)
        assert abs(residuals.var() - 1.0) <= 4 * math.sqrt(2.0 / (m - 1))

    def test_trial_actions_follow_design(self):
        design = TrialDesign([0.25, 0.75])
        trial, _ = sample_trial(POPULATIONS["trial"], 20000, design, seed=1)
        frac = trial.actions.mean()
        assert abs(frac - 0.75) <= 4 * math.sqrt(0.1875 / 20000)


def draw_target(seed):
    covs, u = sample_target(POPULATIONS["A"], 12, seed)
    return covs.x, u


def draw_trial(seed):
    trial, u = sample_trial(POPULATIONS["trial"], 12, TrialDesign([0.3, 0.7]), seed)
    return trial.x, trial.actions, trial.losses, u


def draw_pool(seed):
    pool = sample_pool(np.zeros((3, 2)), POPULATIONS["trial"], 12, seed)
    return pool.x, pool.labels


SAMPLERS = pytest.mark.parametrize(
    "draw", [draw_target, draw_trial, draw_pool], ids=["target", "trial", "pool"]
)


class TestSeeds:
    """A sampler hands ``seed`` to ``np.random.default_rng``: an int seeds a
    new generator, and a ``Generator`` is drawn from as it stands."""

    @SAMPLERS
    def test_int_seed_is_a_fresh_generator(self, draw):
        for got, want in zip(draw(7), draw(np.random.default_rng(7))):
            assert np.array_equal(got, want)

    @SAMPLERS
    def test_generator_stream_continues(self, draw):
        rng = np.random.default_rng(7)
        first, second = draw(rng), draw(rng)
        assert not np.array_equal(first[0], second[0])
        assert all(np.array_equal(a, b) for a, b in zip(first, draw(7)))

    def test_two_target_draws_are_one_longer_draw(self):
        rng = np.random.default_rng(3)
        (x1, u1), (x2, u2) = draw_target(rng), draw_target(rng)
        both, u = sample_target(POPULATIONS["A"], 24, 3)
        assert np.array_equal(both.x, np.vstack([x1, x2]))
        assert np.array_equal(u, np.concatenate([u1, u2]))


class TestTrueOdds:
    def test_identical_populations(self):
        p = POPULATIONS["trial"]
        assert true_odds(np.array([[0.3, -0.7]]), p, p) == pytest.approx([1.0], rel=1e-15)

    def test_population_a_at_half(self):
        value = true_odds(np.array([[0.5, 0.5]]), POPULATIONS["A"], POPULATIONS["trial"])
        assert value == pytest.approx([math.exp(0.25)], rel=1e-12)

    def test_prior_ratio_is_linear(self):
        x = np.array([[1.0, -2.0]])
        base = true_odds(x, POPULATIONS["B"], POPULATIONS["trial"], prior_ratio=1.0)
        assert true_odds(
            x, POPULATIONS["B"], POPULATIONS["trial"], prior_ratio=2.0
        ) == pytest.approx(2.0 * base, rel=1e-15)

    def test_against_density_oracle(self):
        rng = np.random.default_rng(2)
        target, trial = POPULATIONS["D"], POPULATIONS["trial"]
        x = rng.normal(size=(100, 2))
        got = true_odds(x, target, trial)
        expected = (
            scipy.stats.norm.pdf(x[:, 0], target.mean_x0, math.sqrt(target.var_x0))
            / scipy.stats.norm.pdf(x[:, 0], trial.mean_x0, math.sqrt(trial.var_x0))
            * scipy.stats.norm.pdf(x[:, 1], target.mean_x1, math.sqrt(target.var_x1))
            / scipy.stats.norm.pdf(x[:, 1], trial.mean_x1, math.sqrt(trial.var_x1))
        )
        assert np.max(np.abs(got / expected - 1.0)) <= 1e-12

    def test_with_hidden_factor_against_oracle(self):
        rng = np.random.default_rng(3)
        target, trial = POPULATIONS["B"], POPULATIONS["trial"]
        x = rng.normal(size=(50, 2))
        u = rng.normal(size=50)
        got = true_odds_with_u(x, u, target, trial)
        expected = (
            true_odds(x, target, trial)
            * scipy.stats.norm.pdf(u, target.mean_u, math.sqrt(target.var_u))
            / scipy.stats.norm.pdf(u, trial.mean_u, math.sqrt(trial.var_u))
        )
        assert np.max(np.abs(got / expected - 1.0)) <= 1e-12

    def test_refuses_one_dimensional_rows(self):
        p = POPULATIONS["trial"]
        scn = scenario("A")
        with pytest.raises(ValueError, match="2-d"):
            true_odds(np.array([0.3, -0.7]), p, p)
        with pytest.raises(ValueError, match="2-d"):
            true_odds_with_u(np.array([0.3, -0.7]), np.array([0.5]), p, p)
        with pytest.raises(ValueError, match="2-d"):
            true_miscalibration(np.array([0.3, -0.7]), np.array([0.5]), np.ones(1), scn)

    def test_with_hidden_factor_identical_populations(self):
        p = POPULATIONS["trial"]
        assert true_odds_with_u(np.array([[0.1, 0.2]]), np.array([0.5]), p, p) == pytest.approx([1.0])


class TestTrueMiscalibration:
    def test_oracle_model_is_perfectly_calibrated(self):
        scn = scenario("A")
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        u = rng.normal(size=20)
        model_odds = true_odds_with_u(x, u, scn.target, scn.trial, prior_ratio=1.0)
        ratio = true_miscalibration(x, u, model_odds, scn, prior_ratio=1.0)
        assert np.allclose(ratio, 1.0, rtol=1e-12)

    def test_marginalized_model_leaves_hidden_factor_ratio(self):
        scn = scenario("A")
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 2))
        u = rng.normal(size=30)
        model_odds = true_odds(x, scn.target, scn.trial)
        ratio = true_miscalibration(x, u, model_odds, scn)
        expected = scipy.stats.norm.pdf(u, 0.5, 1.0) / scipy.stats.norm.pdf(u, 0.0, 1.0)
        assert np.allclose(ratio, expected, rtol=1e-12)

    def test_band_fraction_count(self):
        """Share of draws whose miscalibration stays within a factor of 2."""
        scn = scenario("A")
        covs, u = sample_target(scn.target, 20000, seed=6)
        model_odds = true_odds(covs.x, scn.target, scn.trial)
        ratio = true_miscalibration(covs.x, u, model_odds, scn)
        sym = np.maximum(ratio, 1.0 / ratio)
        within = float(np.mean(sym <= 2.0))
        # P(|0.5 U - 0.125| <= log 2) for U ~ N(0.5, 1), computable directly
        expected = scipy.stats.norm.cdf((math.log(2.0) + 0.125 - 0.25) / 0.5) - scipy.stats.norm.cdf(
            (-math.log(2.0) + 0.125 - 0.25) / 0.5
        )
        assert abs(within - expected) <= 4 * math.sqrt(expected * (1 - expected) / 20000)


class TestMiscoverage:
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.5, 1e200])
    def test_certified_method_checks_gamma(self, gamma):
        message = "its square overflows" if gamma == 1e200 else "gamma must be a finite real >= 1"
        with pytest.raises(ValueError, match=message):
            CertifiedMethod(gamma=gamma)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"split": "random", "split_frac": 2.0}, "frac must lie strictly inside"),
        ],
    )
    def test_certified_method_checks_settings(self, settings, message):
        with pytest.raises(ValueError, match=message):
            CertifiedMethod(gamma=1.0, **settings)

    def test_matched_split_refuses_frac(self):
        for frac in (2.0, 0.3, math.nan):
            with pytest.raises(ValueError, match="^split_frac applies to the random split only$"):
                CertifiedMethod(gamma=1.0, split="matched", split_frac=frac)
        assert CertifiedMethod(gamma=1.0, split="matched", split_frac=0.5).split_frac == 0.5

    def test_trivial_limits_give_gap_equal_alpha(self):
        scn = scenario("A", n=50, m=40, m_train=40)
        report = miscoverage_gap(
            scn,
            CertifiedMethod(gamma=1e12, odds_source="oracle"),
            [0.1, 0.3],
            runs=3,
            per_run=50,
            seed=0,
        )
        for row in report.rows:
            assert row.exceed_rate == 0.0
            assert row.gap == row.alpha

    def test_calibrated_oracle_weights_cover(self):
        """Treat-none leaves the hidden factor out of the loss, so oracle
        covariate odds are exactly calibrated and the certificate holds."""
        scn = scenario("A", n=800, m=400, m_train=400)
        report = miscoverage_gap(
            scn,
            CertifiedMethod(gamma=1.0, odds_source="oracle"),
            [0.1],
            runs=60,
            per_run=300,
            seed=1,
            policy=PolicySpec.constant(0),
        )
        row = report.rows[0]
        assert row.gap >= -2 * row.se

    def test_gamma_covering_observed_miscalibration_is_valid(self):
        """Picking gamma at the largest observed miscalibration restores the
        certificate even when the hidden factor moves the loss."""
        scn = scenario("A", n=800, m=400, m_train=400)
        covs, u = sample_target(scn.target, 4000, seed=7)
        model = true_odds(covs.x, scn.target, scn.trial)
        ratio = true_miscalibration(covs.x, u, model, scn)
        gamma = float(np.max(np.maximum(ratio, 1.0 / ratio)))
        report = miscoverage_gap(
            scn,
            CertifiedMethod(gamma=gamma, odds_source="oracle"),
            [0.05, 0.1, 0.2],
            runs=40,
            per_run=300,
            seed=2,
        )
        for row in report.rows:
            assert row.gap >= -3 * row.se

    def test_ipsw_oracle_identical_populations_consistent(self):
        scn = SimScenario(
            target=POPULATIONS["trial"], n=1000, m=500, m_train=500
        )
        report = miscoverage_gap(
            scn,
            IpswMethod(odds_source="oracle"),
            [0.2],
            runs=60,
            per_run=300,
            seed=3,
            policy=PolicySpec.uniform(),
        )
        row = report.rows[0]
        assert abs(row.gap) <= 3 * row.se + 0.01

    def test_deterministic_report(self):
        scn = scenario("B", n=100, m=60, m_train=60)
        method = CertifiedMethod(gamma=2.0, odds_source="fitted")
        a = miscoverage_gap(scn, method, [0.2], runs=4, per_run=40, seed=9)
        b = miscoverage_gap(scn, method, [0.2], runs=4, per_run=40, seed=9)
        assert a == b

    def test_pinned_exceed_rates(self):
        """Exceed counts of a default-size study set, pinned when each alpha
        took its own ``limit`` call: a change to the fit or to the limits
        that moves any count shows here."""
        report = miscoverage_gap(
            scenario("B"), CertifiedMethod(gamma=2), (0.05, 0.1, 0.2),
            runs=20, per_run=500, seed=7,
        )
        assert [(row.alpha, row.exceed_rate) for row in report.rows] == [
            (0.05, 0.0124), (0.1, 0.0327), (0.2, 0.0933),
        ]

    def test_run_rng_independent_of_order(self):
        first = run_rng(123, 7).standard_normal(4)
        np.testing.assert_array_equal(first, run_rng(123, 7).standard_normal(4))
        assert not np.array_equal(first, run_rng(123, 8).standard_normal(4))

    def test_se_convention(self):
        scn = scenario("B", n=100, m=60, m_train=60)
        report = miscoverage_gap(
            scn, IpswMethod(odds_source="oracle"), [0.3], runs=5, per_run=40, seed=4
        )
        row = report.rows[0]
        total = report.runs * report.per_run
        assert row.se == pytest.approx(
            math.sqrt(row.exceed_rate * (1 - row.exceed_rate) / total)
        )

    def test_bad_method_rejected(self):
        scn = scenario("A", n=10, m=10, m_train=10)
        with pytest.raises(ValueError):
            miscoverage_gap(scn, object(), [0.1], runs=1, per_run=1, seed=0)

    def test_duplicate_alphas_refused(self):
        scn = scenario("B", n=50, m=40, m_train=40)
        with pytest.raises(ValueError, match="alphas must be distinct"):
            miscoverage_gap(scn, CertifiedMethod(gamma=2.0), [0.1, 0.1], runs=2, per_run=10)

    @pytest.mark.parametrize("per_run", [500, 400])
    def test_table_policy_refused_before_any_study(self, monkeypatch, per_run):
        def no_draw(*args, **kwargs):
            raise AssertionError("a study was drawn")

        monkeypatch.setattr(simlab, "sample_target", no_draw)
        table = PolicySpec.from_table(np.full((500, 2), 0.5))
        with pytest.raises(ValueError, match="^a table policy cannot be measured: "):
            miscoverage_gap(
                scenario("B", m=500), CertifiedMethod(gamma=2.0), [0.1],
                runs=2, per_run=per_run, policy=table,
            )

    @pytest.mark.parametrize(
        "seed, error, message",
        [(-1, ValueError, "^expected non-negative integer$"), (1.5, TypeError, "entropy")],
    )
    def test_bad_seed_refused_before_forking(self, monkeypatch, seed, error, message):
        def no_fork(*args, **kwargs):
            raise AssertionError("workers were forked")

        monkeypatch.setattr(forks, "fork_map", no_fork)
        with pytest.raises(error, match=message):
            miscoverage_gap(
                scenario("B", n=50, m=40, m_train=40), CertifiedMethod(gamma=2.0), [0.1],
                runs=2, per_run=10, seed=seed,
            )


class TestForkedRuns:
    """Runs spread over forked workers give the report of one sequential loop."""

    @staticmethod
    def report(force_cpus, cpus, method, runs, m=40):
        force_cpus(cpus)
        scn = scenario("B", n=60, m=m, m_train=40)
        return miscoverage_gap(scn, method, [0.1, 0.3], runs=runs, per_run=30, seed=11)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("runs", [2, 5])
    @pytest.mark.parametrize(
        "method", [CertifiedMethod(gamma=2.0), IpswMethod(normalized=True)], ids=["certified", "ipsw"]
    )
    def test_reports_match_one_worker(self, force_cpus, cpus, runs, method):
        sequential = self.report(force_cpus, 1, method, runs)
        assert self.report(force_cpus, cpus, method, runs) == sequential

    def test_runs_past_the_queue_size_go_in_chunks(self, monkeypatch, force_cpus):
        sequential = self.report(force_cpus, 1, CertifiedMethod(gamma=2.0), 5)
        monkeypatch.setattr(forks, "MAX_ITEMS", 2)
        assert self.report(force_cpus, 2, CertifiedMethod(gamma=2.0), 5) == sequential

    @pytest.mark.parametrize(
        "in_flight, workers", [(10**9, 8), (3 * 500, 3), (2 * 500 - 1, 1), (499, 1)]
    )
    def test_workers_bounded_by_rows_in_flight(self, monkeypatch, force_cpus, in_flight, workers):
        # each study holds n + m + m_train + per_run = 60 + 370 + 40 + 30 = 500 rows;
        # eight runs on eight CPUs would take eight workers
        sequential = self.report(force_cpus, 1, CertifiedMethod(gamma=2.0), 8, m=370)
        children = []
        fork_child = forks._fork_child

        def counting_fork_child(work):
            children.append(fork_child(work))
            return children[-1]

        monkeypatch.setattr(forks, "_fork_child", counting_fork_child)
        monkeypatch.setattr(simlab, "MAX_ROWS_IN_FLIGHT", in_flight)
        assert self.report(force_cpus, 8, CertifiedMethod(gamma=2.0), 8, m=370) == sequential
        assert len(children) == workers - 1

    def test_one_worker_forks_nothing(self, monkeypatch, force_cpus):
        # one worker drains the queue in this process: the report is the one
        # two workers give, and os.fork is never called
        method = CertifiedMethod(gamma=2.0)
        forked = self.report(force_cpus, 2, method, 3)

        def no_fork():
            raise AssertionError("forked with one worker")

        monkeypatch.setattr(os, "fork", no_fork)
        assert self.report(force_cpus, 1, method, 3) == forked

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failing_runs_raise_and_leave_no_child(self, force_cpus, cpus):
        # one trial row cannot be split in two matched halves
        with pytest.raises(ValueError, match="degenerate matched split"):
            self.report(force_cpus, cpus, CertifiedMethod(gamma=2.0), runs=4, m=1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
