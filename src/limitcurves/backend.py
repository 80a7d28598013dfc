"""Grid-scan kernel: the first loss group where a stand-in CDF reaches its level.

There is one implementation, in numpy; ``BACKEND`` names it in run records.
"""

from __future__ import annotations

import numpy as np

BACKEND = "pure"


def best_stop_index(prefix_low, denom_base, wbars, thresholds) -> int:
    """Smallest loss-group index whose stand-in CDF clears its threshold.

    For each candidate weight bound ``wbars[j]`` (``inf`` marks an infeasible
    level) the first group index with
    ``prefix_low[k] / (denom_base[k] + wbars[j]) >= thresholds[j]`` is found;
    the minimum over all feasible levels is returned, or -1 when no level
    produces a crossing. A zero denominator counts as CDF value 0.

    The arrays must be those ``conformal._scan_arrays`` builds: ``prefix_low``
    nondecreasing, ``denom_base`` nonincreasing, both nonnegative. Every
    level's computed ratio then never decreases in ``k``, and so neither does
    "some level has crossed at ``k``". A lower-bound search over ``k`` with
    steps of falling powers of two finds the first such ``k`` in
    O(levels * log groups) time and O(levels) memory, and returns exactly
    what a linear first-crossing scan over the same arrays returns.
    """
    prefix_low = np.asarray(prefix_low, dtype=np.float64)
    denom_base = np.asarray(denom_base, dtype=np.float64)
    wbars = np.asarray(wbars, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    finite = np.isfinite(wbars)
    if not finite.any():
        return -1
    w = wbars[finite]
    t = thresholds[finite]
    size = prefix_low.shape[0]
    ratio = np.empty_like(w)
    # pos counts the leading groups known to cross at no level
    pos = 0
    step = 1 << (size.bit_length() - 1) if size else 0
    while step:
        probe = pos + step - 1
        if probe < size:
            den = denom_base[probe] + w
            ratio.fill(0.0)
            np.divide(prefix_low[probe], den, out=ratio, where=den > 0.0)
            if not (ratio >= t).any():
                pos += step
        step >>= 1
    return pos if pos < size else -1
