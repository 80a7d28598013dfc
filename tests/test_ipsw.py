"""Tests for the reweighting baseline estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitcurves.cli import main
from limitcurves.conformal import CalibrationSet
from limitcurves.data import PolicySpec, TrialDataset, TrialDesign
from limitcurves.ipsw import ipsw_cdf, ipsw_quantile, ipsw_value
from limitcurves.simlab import IpswMethod, miscoverage_gap, scenario


def hand_case():
    """Four rows, unit odds, treat-all policy: two treated losses (1, 3)."""
    x = np.zeros((4, 1))
    actions = np.array([1, 0, 1, 0])
    losses = np.array([1.0, 5.0, 3.0, 6.0])
    trial = TrialDataset(x, actions, losses, 2)
    return trial, np.ones(4), PolicySpec.constant(1), TrialDesign.uniform(2)


class TestValue:
    def test_hand_case(self):
        trial, odds, policy, design = hand_case()
        assert ipsw_value(trial, odds, policy, design, 4) == 2.0

    def test_policy_equals_design_gives_mean_loss(self):
        rng = np.random.default_rng(0)
        m = 50
        trial = TrialDataset(
            rng.normal(size=(m, 1)), rng.integers(0, 2, m), rng.normal(size=m), 2
        )
        value = ipsw_value(trial, np.ones(m), PolicySpec.uniform(), TrialDesign.uniform(2), m)
        assert value == pytest.approx(float(trial.losses.mean()), rel=1e-12)

    def test_zero_policy_mass_everywhere(self):
        trial, odds, _, design = hand_case()
        all_zero = TrialDataset(trial.x, np.zeros(4, dtype=int), trial.losses, 2)
        assert ipsw_value(all_zero, odds, PolicySpec.constant(1), design, 4) == 0.0

    def test_misaligned_odds(self):
        trial, _, policy, design = hand_case()
        with pytest.raises(ValueError):
            ipsw_value(trial, np.ones(3), policy, design, 4)


class TestCdf:
    def test_hand_case(self):
        trial, odds, policy, design = hand_case()
        assert ipsw_cdf(trial, odds, policy, design, 4, 2.0) == 0.5

    def test_below_all_losses(self):
        trial, odds, policy, design = hand_case()
        assert ipsw_cdf(trial, odds, policy, design, 4, 0.0) == 0.0

    def test_full_mass(self):
        rng = np.random.default_rng(1)
        m = 30
        trial = TrialDataset(
            rng.normal(size=(m, 1)), rng.integers(0, 2, m), rng.normal(size=m), 2
        )
        value = ipsw_cdf(
            trial, np.ones(m), PolicySpec.uniform(), TrialDesign.uniform(2), m, 100.0
        )
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_monotone_right_continuous(self):
        trial, odds, policy, design = hand_case()
        grid = np.linspace(0.0, 7.0, 100)
        values = [ipsw_cdf(trial, odds, policy, design, 4, g) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert ipsw_cdf(trial, odds, policy, design, 4, 1.0) == ipsw_cdf(
            trial, odds, policy, design, 4, 1.0 + 1e-12
        )


class TestQuantile:
    def test_hand_cases(self):
        trial, odds, policy, design = hand_case()
        assert ipsw_quantile(trial, odds, policy, design, 4, 0.25) == 3.0
        assert ipsw_quantile(trial, odds, policy, design, 4, 0.6) == 1.0

    def test_unreachable_threshold(self):
        trial, odds, policy, design = hand_case()
        # treat-all mass is 1.0 here, so alpha below 0 is impossible; force a
        # short-mass case by shrinking the odds
        assert ipsw_quantile(trial, odds * 0.25, policy, design, 4, 0.1) is None

    def test_matches_empirical_quantile_when_unweighted(self):
        rng = np.random.default_rng(2)
        m = 200
        trial = TrialDataset(
            rng.normal(size=(m, 1)), rng.integers(0, 2, m), rng.normal(size=m), 2
        )
        losses = np.sort(trial.losses)
        for alpha in (0.1, 0.25, 0.5, 0.9):
            got = ipsw_quantile(
                trial, np.ones(m), PolicySpec.uniform(), TrialDesign.uniform(2), m, alpha
            )
            # smallest observed loss with empirical CDF >= 1 - alpha
            expected = losses[int(np.ceil((1.0 - alpha) * m)) - 1]
            assert got == expected

    def test_nonincreasing_in_alpha(self):
        trial, odds, policy, design = hand_case()
        values = [
            ipsw_quantile(trial, odds, policy, design, 4, a) for a in (0.1, 0.3, 0.6, 0.9)
        ]
        finite = [v for v in values if v is not None]
        assert all(b <= a for a, b in zip(finite, finite[1:]))

    def test_normalized_variant_reaches_every_level(self):
        trial, odds, policy, design = hand_case()
        # unnormalized mass is 0.25 of nominal here; normalization rescues it
        assert ipsw_quantile(trial, odds * 0.25, policy, design, 4, 0.1) is None
        assert (
            ipsw_quantile(trial, odds * 0.25, policy, design, 4, 0.1, normalized=True)
            == 3.0
        )

    def test_zero_mass_gives_no_quantile(self):
        trial, odds, policy, design = hand_case()
        untreated = TrialDataset(trial.x, np.zeros(4, dtype=int), trial.losses, 2)
        for normalized in (False, True):
            assert ipsw_quantile(untreated, odds, policy, design, 4, 0.5, normalized) is None


@st.composite
def dyadic_study(draw):
    """A two-arm trial with tied losses and odds that are multiples of 1/64,
    a ``constant`` or ``uniform`` policy and a power-of-two ``n_target``: every
    weight sum and every division by ``n_target`` is exact."""
    m = draw(st.integers(1, 30))
    losses = draw(st.lists(st.integers(0, 6).map(float), min_size=m, max_size=m))
    actions = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    odds = draw(st.lists(st.integers(1, 256).map(lambda k: k / 64), min_size=m, max_size=m))
    policy = draw(st.sampled_from([PolicySpec.constant(0), PolicySpec.constant(1), PolicySpec.uniform()]))
    trial = TrialDataset(np.zeros((m, 1)), np.array(actions), np.array(losses), 2)
    return trial, np.array(odds), policy, TrialDesign.uniform(2), 2 ** draw(st.integers(0, 8))


@given(
    study=dyadic_study(),
    # dyadic alphas put 1 - alpha exactly on a CDF value now and then
    alpha=st.one_of(
        st.integers(1, 63).map(lambda k: k / 64),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
)
@settings(max_examples=200, deadline=None, database=None)
def test_quantile_is_first_loss_where_cdf_reaches_level(study, alpha):
    """``ipsw_quantile`` is the smallest observed loss whose ``ipsw_cdf``
    reaches 1 - alpha, the CDF divided by its total when normalized, or None,
    bit for bit."""
    trial, odds, policy, design, n_target = study
    losses = sorted(set(trial.losses.tolist()))
    cdf = [ipsw_cdf(trial, odds, policy, design, n_target, ell) for ell in losses]
    total = cdf[-1]
    # zero mass reaches no level
    normed = [c / total for c in cdf] if total else []
    for normalized, levels in ((False, cdf), (True, normed)):
        hits = [ell for ell, level in zip(losses, levels) if level >= 1.0 - alpha]
        got = ipsw_quantile(trial, odds, policy, design, n_target, alpha, normalized)
        assert got == (hits[0] if hits else None)


class TestSortsOnce:
    """The weights are sorted into one ``CalibrationSet`` per study, whatever
    the number of alphas."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        calls = []
        init = CalibrationSet.__init__

        def counted(self, *args):
            calls.append(1)
            init(self, *args)

        monkeypatch.setattr(CalibrationSet, "__init__", counted)
        return calls

    def test_cli_run(self, tmp_path, constructions):
        trial = tmp_path / "trial.csv"
        trial.write_text("x0,a,l\n0.0,1,1.0\n0.0,0,5.0\n0.0,1,3.0\n0.0,0,6.0\n")
        target = tmp_path / "target.csv"
        target.write_text("x0\n0.0\n0.0\n0.0\n0.0\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("id,odds\n0,1.0\n1,1.0\n2,1.0\n3,1.0\n")
        argv = ["ipsw", "--trial", trial, "--target", target, "--scores", scores,
                "--policy", "constant:1", "--alphas", "0.1,0.25,0.5,0.6,0.9",
                "--out", tmp_path / "i.json"]
        assert main([str(a) for a in argv]) == 0
        assert len(constructions) == 1

    @pytest.mark.parametrize("normalized", [False, True])
    def test_lab_studies(self, force_cpus, constructions, normalized):
        force_cpus(1)
        scn = scenario("B", n=60, m=40, m_train=40)
        method = IpswMethod(odds_source="oracle", normalized=normalized)
        miscoverage_gap(scn, method, [0.05, 0.1, 0.2, 0.5, 0.9], runs=3, per_run=10, seed=1)
        assert len(constructions) == 3
