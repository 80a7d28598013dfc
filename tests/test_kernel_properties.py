"""Property tests of the grid-scan kernel and of the limits built on it.

The kernel's binary search must return, for every row of a block, what the
dense first-crossing scan in ``scan_reference`` returns, on every array
``conformal._scan_arrays`` can build, and splitting the alphas into blocks
under the level cap must not change a limit. The one unscaled scan must give
the limits of the gamma-rescaled weights, built once per curve or study. The
limits must keep the construction's orders and their invariance to the scale
of the weights.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scan_reference import best_stop_index as dense_best_stop_index
from scan_reference import best_stop_indices as dense_best_stop_indices

import limitcurves as lc
from limitcurves import backend, conformal, simlab
from limitcurves.conformal import _scan_arrays

SETTINGS = settings(max_examples=100, deadline=None, database=None)

GAMMAS = (1.0, 1.25, 1.5, 2.0, 3.0, 8.0)


def weights(max_value):
    """Nonnegative float weights, zero with a fair share of draws."""
    return st.one_of(st.just(0.0), st.floats(0.0, max_value))


@st.composite
def calibration(draw, max_weight=1e300, max_size=40):
    """A CalibrationSet with tied losses and arbitrary weights lower <= upper."""
    size = draw(st.integers(1, max_size))
    losses = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    lower = draw(st.lists(weights(max_weight), min_size=size, max_size=size))
    extra = draw(st.lists(weights(max_weight), min_size=size, max_size=size))
    upper = [lo + ex for lo, ex in zip(lower, extra)]
    return lc.CalibrationSet(np.array(losses, dtype=np.float64), lower, upper)


def level_rows(data, prefix, suffix):
    """A block of 1-4 rows of 1-12 levels each, laid out as the kernel takes
    them, some rows wholly infeasible, with positive thresholds, some exactly
    on a positive ratio the kernel will compute (which may be inf)."""
    rows, levels = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
    wbars, thresholds = [], []
    for _ in range(rows):
        level = st.just(math.inf)
        if data.draw(st.booleans()):
            level = st.one_of(level, weights(1e300))
        wbars.append(data.draw(st.lists(level, min_size=levels, max_size=levels)))
        positive = st.floats(0.0, 1.5, exclude_min=True)
        thresholds.append(data.draw(st.lists(positive, min_size=levels, max_size=levels)))
    wbars, thresholds = np.array(wbars), np.array(thresholds)
    for j in data.draw(st.sets(st.integers(0, wbars.size - 1))):
        r, c = divmod(j, levels)
        if math.isfinite(wbars[r, c]):
            k = data.draw(st.integers(0, prefix.shape[0] - 1))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ratio = prefix[k] / (suffix[k] + wbars[r, c])
            if ratio > 0.0:
                thresholds[r, c] = ratio
    return wbars, thresholds


@given(cal=calibration(), data=st.data())
@SETTINGS
def test_kernel_matches_dense_scan(cal, data):
    _, prefix, suffix = _scan_arrays(cal.losses, cal.lower, cal.upper, cal.group_ends)
    # the orders the binary search relies on
    assert np.all(np.diff(prefix) >= 0.0)
    assert np.all(np.diff(suffix) <= 0.0)
    wbars, thresholds = level_rows(data, prefix, suffix)
    got = backend.best_stop_index(prefix, suffix, wbars, thresholds)
    assert got.tolist() == dense_best_stop_indices(prefix, suffix, wbars, thresholds)


def test_kernel_zero_denominators():
    zeros = np.zeros(4)
    wbars = np.array([0.0, math.inf, 0.0, math.inf])
    thresholds = np.full(4, 0.5)
    for shape in ((1, 4), (2, 2), (4, 1)):
        w, th = wbars.reshape(shape), thresholds.reshape(shape)
        got = backend.best_stop_index(zeros, zeros, w, th)
        assert got.tolist() == dense_best_stop_indices(zeros, zeros, w, th)


def test_kernel_without_finite_level():
    ones = np.ones(3)
    wbars = np.array([[math.inf, math.inf], [0.0, math.inf], [math.inf, math.inf]])
    got = backend.best_stop_index(ones, ones, wbars, np.ones((3, 2)))
    assert got.tolist() == [-1, 0, -1]


def test_every_caller_meets_the_kernel_contract(monkeypatch):
    """Every call hands the kernel positive finite thresholds and weight
    bounds that are >= 0 or inf: curves at the extremes of the CLI's rounded
    alpha grid and at gamma 1e100, ``limit``, ``quantile``, the IPSW
    quantiles plain and normalized (also at zero mass), and the lab's studies
    of each method."""
    kernel = backend.best_stop_index
    calls = []

    def checked(prefix, suffix, wbars, thresholds):
        assert np.all(thresholds > 0.0) and np.all(np.isfinite(thresholds))
        assert np.all((wbars >= 0.0) | (wbars == math.inf))
        calls.append(wbars.shape)
        return kernel(prefix, suffix, wbars, thresholds)

    monkeypatch.setattr(backend, "best_stop_index", checked)
    cal = lc.CalibrationSet(np.arange(6.0), np.ones(6), np.full(6, 2.0))
    ws = lc.WeightBoundSet(np.ones(9))
    lc.limit_curve(cal, ws, [1e-15, 1 - 1e-15], (1.0, 1e100), 10.0)
    assert len(calls) == 2
    lc.limit(cal, ws, 0.1, 2.0)
    lc.quantile(cal, 1.0, 0.1, 0.05)
    assert len(calls) == 4
    trial = lc.TrialDataset(np.zeros((4, 1)), np.array([1, 0, 1, 0]), np.array([1.0, 5.0, 3.0, 6.0]), 2)
    # the table policy plays each row's untried action: zero mass
    zero_mass = lc.PolicySpec.from_table(np.eye(2)[1 - trial.actions])
    for policy in (lc.PolicySpec.constant(0), lc.PolicySpec.uniform(), zero_mass):
        for normalized in (False, True):
            lc.ipsw_quantile(trial, np.ones(4), policy, lc.TrialDesign.uniform(2), 4, 0.1, normalized)
    assert len(calls) == 10
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 1)
    scn = simlab.scenario("B", n=100, m=60, m_train=60)
    for method in (simlab.CertifiedMethod(gamma=2.0), simlab.IpswMethod(), simlab.IpswMethod(normalized=True)):
        simlab.miscoverage_gap(scn, method, [0.1, 0.2], runs=2, per_run=20)
    assert len(calls) == 10 + 3 * 2


def bound_set(max_weight):
    return st.lists(weights(max_weight), min_size=1, max_size=30).map(lc.WeightBoundSet)


def as_bound(value):
    """A trivial limit (None) bounds nothing, so it orders above every loss."""
    return math.inf if value is None else value


@given(
    cal=calibration(max_weight=1e6),
    ws=bound_set(1e6),
    percents=st.lists(st.integers(1, 99), min_size=1, max_size=8, unique=True),
    # from one alpha per block up to all eight in one
    cap=st.integers(conformal.BETA_POINTS, 8 * conformal.BETA_POINTS),
    gamma=st.sampled_from(GAMMAS),
)
@SETTINGS
def test_level_cap_splits_batches_without_changing_limits(cal, ws, percents, cap, gamma):
    """The alphas of a curve split into blocks under a small level cap."""
    alphas = [p / 100.0 for p in percents]
    kernel = backend.best_stop_index
    calls = []

    def counted(*args):
        calls.append(args[2].shape)
        return kernel(*args)

    with mock.patch.object(conformal, "LEVEL_CAP", cap), mock.patch.object(
        backend, "best_stop_index", counted
    ):
        (got,) = conformal._limits(cal, ws, [gamma], conformal._default_blocks(alphas))
    assert all(rows * levels <= cap for rows, levels in calls)
    assert all(levels == conformal.BETA_POINTS for _, levels in calls)
    assert sum(rows for rows, _ in calls) == len(alphas)
    loss_ends, prefix, suffix = _scan_arrays(cal.losses, cal.lower, cal.upper, cal.group_ends)
    for alpha, value in zip(alphas, got):
        betas = lc.default_beta_grid(alpha)
        wbars = conformal._weight_bound_values(ws.upper, betas)
        k = dense_best_stop_index(prefix, suffix, wbars, gamma**2 * ((1.0 - alpha) / (alpha - betas)))
        assert value == (math.inf if k < 0 else loss_ends[k])


def dyadic(low=0, high=64):
    """Multiples of 1/64 up to 1: every sum of a few of them is exact."""
    return st.integers(low, high).map(lambda k: k / 64)


@st.composite
def dyadic_calibration(draw, max_size=40):
    size = draw(st.integers(1, max_size))
    losses = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    lower = draw(st.lists(dyadic(), min_size=size, max_size=size))
    upper = [draw(dyadic(low=round(lo * 64))) for lo in lower]
    return lc.CalibrationSet(np.array(losses, dtype=np.float64), lower, upper)


@given(
    cal=dyadic_calibration(),
    # at least 3 small bounds, so most draws give a finite limit at gamma 4 too
    ws=st.lists(dyadic(high=16), min_size=3, max_size=30).map(lc.WeightBoundSet),
    # with beta 0.25, (1 - alpha) / (1 - beta) is 0.5 or 0.75 and the kernel's
    # level (1 - alpha) / (alpha - beta) is 1 or 3: both exact
    alpha=st.sampled_from((0.625, 0.4375)),
    gamma=st.sampled_from((1.0, 2.0, 4.0)),
)
@SETTINGS
def test_one_scan_equals_rescaled_scan(cal, ws, alpha, gamma):
    """The stand-in CDF of the weights rescaled by gamma (lower / gamma,
    upper * gamma, w * gamma), evaluated at every observed loss, crosses
    where the one unscaled scan does against gamma**2 * (1 - alpha) / (alpha
    - beta)."""
    beta = 0.25
    t = (1.0 - alpha) / (1.0 - beta)
    scaled = lc.CalibrationSet(cal.losses, cal.lower / gamma, cal.upper * gamma)
    w = lc.weight_bound(ws, beta) * gamma
    hits = [ell for ell in np.unique(cal.losses) if lc.stand_in_cdf(scaled, w, ell) >= t]
    assert lc.limit(cal, ws, alpha, gamma, [beta]) == (min(hits) if hits else None)


def test_one_scan_per_curve_and_per_study(monkeypatch):
    scans = []

    def counted(*args):
        scans.append(args)
        return _scan_arrays(*args)

    monkeypatch.setattr(conformal, "_scan_arrays", counted)
    # eight alphas per block, so the 99 default alphas take 13 blocks
    monkeypatch.setattr(conformal, "LEVEL_CAP", 8 * conformal.BETA_POINTS)
    cal = lc.CalibrationSet(np.arange(6.0), np.ones(6), np.full(6, 2.0))
    curve = lc.limit_curve(cal, lc.WeightBoundSet(np.ones(9)), None, (1.0, 1.5, 2.0), 10.0)
    assert len(curve.points) == 3 * 99 and len(scans) == 1
    # each study of the miscoverage harness scans once, at its one gamma
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 1)
    scn = simlab.scenario("B", n=100, m=60, m_train=60)
    simlab.miscoverage_gap(scn, simlab.CertifiedMethod(gamma=2.0), [0.1, 0.2], runs=3, per_run=20)
    assert len(scans) == 1 + 3


@given(
    cal=calibration(max_weight=1e6),
    ws=bound_set(1e6),
    percents=st.lists(st.integers(1, 99), min_size=2, max_size=2, unique=True),
    gamma=st.sampled_from(GAMMAS),
)
@SETTINGS
def test_limit_does_not_increase_in_alpha(cal, ws, percents, gamma):
    low, high = sorted(p / 100.0 for p in percents)
    assert as_bound(lc.limit(cal, ws, high, gamma)) <= as_bound(lc.limit(cal, ws, low, gamma))


@given(
    cal=calibration(max_weight=1e6),
    ws=bound_set(1e6),
    percent=st.integers(1, 99),
    gammas=st.lists(st.sampled_from(GAMMAS), min_size=2, max_size=2, unique=True),
)
@SETTINGS
def test_limit_does_not_decrease_in_gamma(cal, ws, percent, gammas):
    low, high = sorted(gammas)
    alpha = percent / 100.0
    assert as_bound(lc.limit(cal, ws, alpha, low)) <= as_bound(lc.limit(cal, ws, alpha, high))


@given(
    cal=calibration(max_weight=1e3),
    ws=bound_set(1e3),
    percent=st.integers(1, 99),
    gamma=st.sampled_from(GAMMAS),
    power=st.integers(-40, 40),
)
@SETTINGS
def test_limit_invariant_to_power_of_two_scale(cal, ws, percent, gamma, power):
    scale = 2.0**power
    scaled_cal = lc.CalibrationSet(cal.losses, cal.lower * scale, cal.upper * scale)
    scaled_ws = lc.WeightBoundSet(ws.upper * scale)
    alpha = percent / 100.0
    assert lc.limit(scaled_cal, scaled_ws, alpha, gamma) == lc.limit(cal, ws, alpha, gamma)


# Unit weights at gamma 1 reduce to split conformal once the beta level is
# below the relative gap between (1 - alpha)(n + 1) and the next integer. With
# n <= 40 and alpha on a 0.01 grid that gap is at least 0.01 / 41 > 2**-13, and
# 2**13 - 1 unit bounds make the level-(1 - 2**-13) bound finite.
UNIT_BETA = 2.0**-13
UNIT_BOUNDS = lc.WeightBoundSet(np.ones(2**13 - 1))


@given(
    losses=st.integers(1, 40).flatmap(
        lambda n: st.lists(
            st.one_of(st.integers(0, 6).map(float), st.floats(-1e6, 1e6)),
            min_size=n,
            max_size=n,
        )
    ),
    percent=st.integers(1, 99),
)
@SETTINGS
def test_unit_weights_give_split_conformal_order_statistic(losses, percent):
    n = len(losses)
    # at an integer (1 - alpha)(n + 1) every beta > 0 moves the limit one rank up
    assume((100 - percent) * (n + 1) % 100 != 0)
    alpha = percent / 100.0
    cal = lc.CalibrationSet.from_shift_weights(losses, np.ones(n))
    got = lc.limit(cal, UNIT_BOUNDS, alpha, 1.0, [UNIT_BETA])
    rank = math.ceil((1.0 - alpha) * (n + 1))
    assert got == (None if rank > n else sorted(losses)[rank - 1])
