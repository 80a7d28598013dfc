"""Dense reference for ``limitcurves.backend.best_stop_index``, used by tests only.

It evaluates one row's whole levels x groups ratio matrix and takes every
level's first crossing, i.e. the linear scan the binary search must reproduce.
"""

from __future__ import annotations

import numpy as np


def best_stop_index(prefix_low, denom_base, wbars, thresholds) -> int:
    """Smallest loss-group index whose stand-in CDF clears its threshold.

    For each candidate weight bound ``wbars[j]`` (``inf`` marks an infeasible
    level) the first group index with
    ``prefix_low[k] / (denom_base[k] + wbars[j]) >= thresholds[j]`` is found;
    the minimum over all feasible levels is returned, or -1 when no level
    produces a crossing. The ratio is plain IEEE division, so ``x / 0 = inf``
    crosses and ``0 / 0`` never does; a threshold ``<= 0`` crosses at the
    first group.
    """
    finite = np.isfinite(wbars)
    if not np.any(finite):
        return -1
    den = denom_base[np.newaxis, :] + wbars[finite, np.newaxis]
    num = np.broadcast_to(prefix_low, den.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = num / den
    hit = ratio >= thresholds[finite, np.newaxis]
    hit[thresholds[finite] <= 0.0, 0] = True
    rows = hit.any(axis=1)
    if not rows.any():
        return -1
    return int(np.argmax(hit[rows], axis=1).min())


def best_stop_indices(prefix_low, denom_base, wbars, thresholds) -> list[int]:
    """``best_stop_index`` of every row of the kernel's ``(rows, levels)`` arrays."""
    return [
        best_stop_index(prefix_low, denom_base, w, t) for w, t in zip(wbars, thresholds)
    ]
