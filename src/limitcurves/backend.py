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
    found; each row gets the minimum over its levels, or -1 when none of them
    produces a crossing. ``x / 0 = inf`` crosses, ``0 / 0`` never does.
    Every threshold must be positive (``inf`` only where a level
    overflows), so an infeasible level's ratio, ``prefix / inf = 0`` or NaN
    after an overflow, never crosses.

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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while step:
            # a probe past the end reads the last group, which extends every
            # level's crossing predicate monotonically
            probe = pos + (step - 1)
            ratio = prefix_low.take(probe, mode="clip") / (denom_base.take(probe, mode="clip") + wbars)
            # a NaN ratio (0 / 0 or inf / inf) never crosses
            pos += step * ~(ratio >= thresholds)
            step >>= 1
    first = pos.min(axis=-1)
    first[first >= size] = -1
    return first
