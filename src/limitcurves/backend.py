"""Grid-scan kernel: the first loss group where a stand-in CDF reaches its level.

There is one implementation, in numpy; ``BACKEND`` names it in run records.
"""

from __future__ import annotations

import numpy as np

BACKEND = "pure"


def best_stop_index(prefix_low, denom_base, wbars, thresholds) -> np.ndarray:
    """Per row, the smallest loss-group index whose stand-in CDF clears the
    threshold of one of the row's levels.

    ``wbars`` and ``thresholds`` are ``(rows, levels)`` arrays of one shape.
    For each level ``j`` of a row (``wbars[r, j] = inf`` marks an infeasible
    level) the first group index with
    ``prefix_low[k] / (denom_base[k] + wbars[r, j]) >= thresholds[r, j]`` is
    found; each row gets the minimum over its feasible levels, or -1 when none
    of them produces a crossing. ``x / 0 = inf`` crosses, ``0 / 0`` never
    does, and a threshold ``<= 0`` crosses at the first group.

    The arrays must be float64 ndarrays over at least one loss group (a
    ``CalibrationSet`` is never empty), as ``conformal._scan_arrays`` builds
    them: ``prefix_low`` nondecreasing, ``denom_base`` nonincreasing, both
    nonnegative. Every level's computed ratio then never decreases in ``k``,
    and so neither does "level ``j`` has crossed at ``k``". A lower-bound
    search over ``k`` with steps of falling powers of two, run for all levels
    at once, finds each level's first crossing in O(levels * log groups) time
    and O(levels) memory, and the row minimum is exactly what a linear
    first-crossing scan over the same arrays returns.
    """
    size = prefix_low.shape[0]
    step = 1 << (size.bit_length() - 1)
    # pos[j] counts the leading groups where level j is known not to cross
    pos = np.zeros(wbars.shape, dtype=np.int64)
    probe = np.empty_like(pos)
    den = np.empty_like(wbars)
    ratio = np.empty_like(wbars)
    crossed = np.empty(wbars.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while step:
            np.add(pos, step - 1, out=probe)
            # a probe past the end reads the last group, which extends every
            # level's crossing predicate monotonically
            np.take(denom_base, probe, out=den, mode="clip")
            den += wbars
            np.take(prefix_low, probe, out=ratio, mode="clip")
            # 0 / 0 is NaN and never crosses; the fix-up below covers t <= 0
            ratio /= den
            np.greater_equal(ratio, thresholds, out=crossed)
            np.add(pos, step, out=pos, where=~crossed)
            step >>= 1
    # a level with threshold <= 0 crosses at the first group, even where the
    # ratio there is NaN, and an infeasible level never crosses
    pos[thresholds <= 0.0] = 0
    pos[~np.isfinite(wbars)] = size
    first = pos.min(axis=-1)
    first[first >= size] = -1
    return first
