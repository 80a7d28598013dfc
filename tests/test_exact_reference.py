"""Every certified level against exact arithmetic on the engine's own floats.

``exact_reference`` recomputes the stand-in CDF, ``quantile`` and ``limit``
in ``fractions.Fraction``. Each cell of ``limit_curve`` and of ``quantile``
on tie-prone calibration sets must equal it, unless the reference flags the
cell as one rounding can decide; those are counted and printed (``-s``).
Levels placed just either side of each stand-in CDF value must stop exactly
where the reference stops, and that check must notice a level scaled by a
factor as close to 1 as ``1 + 1e-12``.
"""

import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from exact_reference import Reference
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from limitcurves import backend
from limitcurves.conformal import (
    BETA_POINTS,
    CalibrationSet,
    WeightBoundSet,
    default_alpha_grid,
    default_beta_grid,
    limit,
    limit_curve,
    quantile,
    stand_in_cdf,
    weight_bound,
)

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
# each example checks about 300 cells exactly, so a failure is reported as
# drawn: shrinking it would take minutes
CELL_SETTINGS = settings(SETTINGS, max_examples=10, phases=(Phase.generate,))

GAMMAS = (1.0, 1.5, 2.0)
ALPHAS = default_alpha_grid().tolist()
BETAS = {alpha: default_beta_grid(alpha).tolist() for alpha in ALPHAS}
L_MAX = 8.0

# relative offsets of a level from a stand-in CDF value: far outside the
# rounding window, and closer to the value than a 1e-12 change of the level
OFFSETS = (-1e-9, 1e-9, -1e-13, 1e-13)
FIXED_BETAS = (0.001, 0.01, 0.025, 0.05, 0.1, 0.2)


@st.composite
def tie_prone_sets(draw):
    """A calibration set and a weight-bound set with integer losses 0-7 and
    weights in thirds, in 64ths or small integers, so ties between a
    stand-in CDF value and a level are common."""
    denominator, top = draw(st.sampled_from(((3.0, 9), (64.0, 128), (1.0, 4))))
    weight = st.integers(0, top).map(lambda k: k / denominator)
    size = draw(st.integers(1, 40))
    losses = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size))
    lower = draw(st.lists(weight, min_size=size, max_size=size))
    if draw(st.booleans()):
        upper = lower
    else:
        upper = [lo + ex for lo, ex in zip(lower, draw(st.lists(weight, min_size=size, max_size=size)))]
    bounds = draw(st.lists(weight, min_size=1, max_size=80))
    return CalibrationSet(np.array(losses, dtype=np.float64), lower, upper), WeightBoundSet(bounds)


def exact_bound(w: float):
    return None if w == math.inf else Fraction(w)


def tally(counts, kind, got, exact, flagged):
    """Count one cell; a flagged cell may differ from exact, no other may."""
    counts[kind] += 1
    counts[f"{kind} nontrivial"] += exact is not None
    if flagged:
        counts[f"{kind} flagged"] += 1
        counts[f"{kind} flagged and different"] += got != exact
    else:
        assert got == exact, (kind, got, exact)


def test_every_cell_equals_exact_unless_flagged():
    counts = Counter()

    @given(sets=tie_prone_sets(), index=st.integers(0, BETA_POINTS - 1))
    @CELL_SETTINGS
    def check(sets, index):
        cal, ws = sets
        ref = Reference(cal, ws)
        curve = limit_curve(cal, ws, None, GAMMAS, L_MAX)
        cells = zip(*(curve.columns[name].tolist() for name in ("gamma", "alpha", "limit", "trivial")))
        for gamma, alpha, value, trivial in cells:
            exact, flagged = ref.limit(alpha, gamma, BETAS[alpha])
            tally(counts, "limit_curve", None if trivial else value, exact, flagged)
        # quantile at one beta of every alpha's grid, at its float weight bound
        for alpha in ALPHAS:
            beta = BETAS[alpha][index]
            w = weight_bound(ws, beta)
            tally(counts, "quantile", quantile(cal, w, alpha, beta), *ref.quantile(exact_bound(w), alpha, beta))

    check()
    print(f"\nexact reference: {dict(sorted(counts.items()))}")
    assert counts["limit_curve"] == CELL_SETTINGS.max_examples * len(GAMMAS) * len(ALPHAS)


def near_boundary_mismatches(cal, ws, beta):
    """For each stand-in CDF value ``c`` at ``beta``'s weight bound, alphas
    whose ``(1 - alpha) / (1 - beta)`` lies just either side of ``c``; the
    ``(alpha, engine, exact)`` of every unflagged ``quantile`` and one-beta
    ``limit`` that stops elsewhere than the reference."""
    ref = Reference(cal, ws)
    w = weight_bound(ws, beta)
    mismatches = []
    for ell in np.unique(cal.losses).tolist():
        c = stand_in_cdf(cal, w, ell)
        for offset in OFFSETS:
            alpha = 1.0 - c * (1.0 + offset) * (1.0 - beta)
            if not beta < alpha < 1.0:
                continue
            for got, (exact, flagged) in (
                (quantile(cal, w, alpha, beta), ref.quantile(exact_bound(w), alpha, beta)),
                (limit(cal, ws, alpha, 1.0, [beta]), ref.limit(alpha, 1.0, [beta])),
            ):
                if not flagged and got != exact:
                    mismatches.append((alpha, got, exact))
    return mismatches


@given(sets=tie_prone_sets(), beta=st.sampled_from(FIXED_BETAS))
@SETTINGS
def test_levels_next_to_each_cdf_value_stop_where_exact_does(sets, beta):
    assert near_boundary_mismatches(*sets, beta) == []


def test_reference_quantile_is_the_first_loss_where_its_cdf_reaches_the_level():
    """The reference's ratio form agrees with its own stand-in CDF."""
    cal = CalibrationSet([0.0, 1.0, 1.0, 2.0, 3.0], [1 / 3, 1.0, 2 / 3, 0.5, 1.0], [1.0, 1.0, 1.0, 0.5, 2.0])
    ref = Reference(cal)
    for w in (Fraction(0), Fraction(1, 3), Fraction(2), None):
        for gamma in GAMMAS:
            for alpha in (0.05, 0.2, 0.5, 0.9):
                beta = alpha / 4
                t = (1 - Fraction(alpha)) / (1 - Fraction(beta))
                hits = [ell for ell in ref.ends if ref.stand_in_cdf(w, ell, gamma) >= t]
                assert ref.quantile(w, alpha, beta, gamma)[0] == (hits[0] if hits else None)


# eight unit-weight losses: stand-in CDF values 1/9, ..., 8/9 at unit bounds
POWER_SET = (CalibrationSet.from_shift_weights(np.arange(8.0), np.ones(8)), WeightBoundSet(np.ones(10)))


@pytest.mark.parametrize("factor", [1 + 1e-12, 1 + 1e-7, 1.001, 1.01, 0.99])
def test_near_boundary_check_sees_a_scaled_level(factor):
    """Every threshold the kernel receives, scaled by ``factor``, moves some
    near-boundary stop; unscaled, none moves."""
    kernel = backend.best_stop_index

    def scaled(prefix, suffix, wbars, thresholds):
        return kernel(prefix, suffix, wbars, thresholds * factor)

    def mismatches():
        return [m for beta in FIXED_BETAS for m in near_boundary_mismatches(*POWER_SET, beta)]

    assert mismatches() == []
    with mock.patch.object(backend, "best_stop_index", scaled):
        assert mismatches()


def rounded_sum_sets():
    """Sets where rounding certifies a cell: at gamma 2, alpha 0.25 and beta
    0.025 the exact weight sum lies below the level and the float sum
    rounds above it."""
    losses = [0, 7, 0, 2, 2, 2, 0, 0, 2, 3, 1, 6, 0, 1, 7, 6, 7, 5, 4, 1, 6, 5, 7, 6]
    lower = [1, 1, 1, 1, 2, 2, 2, 3, 2, 2, 1, 1, 3, 1, 1, 3, 3, 1, 2, 1, 2, 1, 1, 2]
    upper = [3, 3, 1, 1, 3, 2, 1, 2, 3, 2, 1, 2, 3, 3, 3, 1, 2, 2, 3, 1, 1, 2, 1, 3, 2, 3, 1, 2, 3, 1, 1, 2, 2, 2, 3, 1, 3, 2, 3, 3, 3, 3]
    cal = CalibrationSet.from_shift_weights(np.array(losses, dtype=np.float64), np.array(lower) / 3.0)
    return cal, WeightBoundSet(np.array(upper) / 3.0)


def test_reference_flags_the_rounded_sum_and_reaches_no_level():
    assert Reference(*rounded_sum_sets()).limit(0.25, 2.0, BETAS[0.25]) == (None, True)


@pytest.mark.xfail(strict=True, reason="a rounded weight sum certifies a cell exact arithmetic leaves trivial")
def test_rounded_weight_sum_does_not_certify_a_trivial_cell():
    assert limit(*rounded_sum_sets(), 0.25, 2.0) is None
