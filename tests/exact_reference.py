"""The certified engine in exact arithmetic, used by tests only.

Every loss, weight, alpha, beta and gamma enters as the exact rational its
float holds (``fractions.Fraction``), so nothing here rounds. The engine's
float answer equals this reference except where rounding can decide it, and
``Reference`` flags those cells:

- (a) some beta's float weight-bound position ``ceil((m + 1.0) * (1.0 -
  beta))`` differs from the exact ``ceil((m + 1) * (1 - beta))``; or
- (b) some loss group's exact ratio ``prefix / (suffix + w)`` lies within a
  relative ``(n + 4) * 2**-52`` of some beta's exact level ``gamma**2 * (1 -
  alpha) / (alpha - beta)``, for ``n`` calibration rows. The float ratio
  (two sums of at most ``n`` weights, an addition and a division) and the
  float level (five operations) round about ``2n + 4`` times between them,
  each by at most ``2**-53`` relative, so outside that window the float
  comparison agrees with the exact one.

A weight bound of ``None`` is the infinite bound; the stand-in CDF is then 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache


def bound_position(m: int, beta: float) -> int:
    """The 1-based order statistic of ``m`` sorted upper weights that bounds
    the out-of-sample weight at level ``1 - beta``; ``m + 1`` is infinite."""
    return math.ceil((m + 1) * _complement(beta))


@lru_cache(maxsize=None)
def _complement(beta: float) -> Fraction:
    return 1 - Fraction(beta)


@lru_cache(maxsize=None)
def _level(alpha: float, beta: float, gamma: float) -> Fraction:
    """The exact ``gamma**2 * (1 - alpha) / (alpha - beta)``."""
    a, b = Fraction(alpha), Fraction(beta)
    return Fraction(gamma) ** 2 * (1 - a) / (a - b)


class Reference:
    """Exact per-group sums of one calibration set and the sorted upper
    weights of one weight-bound set (``None`` for none)."""

    def __init__(self, cal, ws=None):
        self.n = cal.size
        rows = list(zip(cal.losses.tolist(), map(Fraction, cal.lower.tolist()), map(Fraction, cal.upper.tolist())))
        self.ends = sorted(set(cal.losses.tolist()))
        # prefix: lower weights at or below each group's loss; suffix: upper
        # weights strictly above it
        self.prefix = [sum((lo for ell, lo, _ in rows if ell <= end), Fraction(0)) for end in self.ends]
        self.suffix = [sum((up for ell, _, up in rows if ell > end), Fraction(0)) for end in self.ends]
        self.total_upper = sum((up for _, _, up in rows), Fraction(0))
        self.upper = [] if ws is None else [Fraction(u) for u in ws.upper.tolist()]
        self.eps = (self.n + 4) * Fraction(1, 2**52)
        self._by_beta = {}
        self._ratios = {}

    def stand_in_cdf(self, w: Fraction | None, ell: float, gamma: float = 1.0) -> Fraction:
        """Lower weights over ``gamma`` at or below ``ell`` against upper
        weights and ``w`` times ``gamma`` above it; 0 when ``w`` is infinite
        or every weight is 0."""
        if w is None:
            return Fraction(0)
        k = bisect_right(self.ends, ell) - 1
        # below every loss, no lower weight counts and every upper weight does
        below, above = (self.prefix[k], self.suffix[k]) if k >= 0 else (Fraction(0), self.total_upper)
        g = Fraction(gamma)
        num = below / g
        den = num + (above + Fraction(w)) * g
        return num / den if den else Fraction(0)

    def quantile(self, w: Fraction | None, alpha: float, beta: float, gamma: float = 1.0):
        """The smallest observed loss where the stand-in CDF reaches ``(1 -
        alpha) / (1 - beta)``, or None, and whether rounding can decide it."""
        k, flagged = self._first_crossing(self._ratio_lists(w), _level(alpha, beta, gamma))
        return (self.ends[k] if k < len(self.ends) else None), flagged

    def limit(self, alpha: float, gamma: float, betas):
        """The smallest ``quantile`` over ``betas``, each at its weight
        bound, or None, and whether rounding can decide it."""
        first, flagged = len(self.ends), False
        for beta in betas:
            lists, moved = self._at_bound(beta)
            k, near = self._first_crossing(lists, _level(alpha, beta, gamma))
            first = min(first, k)
            flagged = flagged or near or moved
        return (self.ends[first] if first < len(self.ends) else None), flagged

    def _at_bound(self, beta: float):
        """The ratio lists at ``beta``'s exact weight bound, and whether the
        engine's float position ``ceil((m + 1.0) * (1.0 - beta))`` differs
        from the exact one."""
        if beta not in self._by_beta:
            m = len(self.upper)
            position = bound_position(m, beta)
            w = self.upper[position - 1] if position <= m else None
            moved = math.ceil((m + 1.0) * (1.0 - beta)) != position
            self._by_beta[beta] = self._ratio_lists(w), moved
        return self._by_beta[beta]

    def _first_crossing(self, lists, level: Fraction):
        """The first group index whose ratio reaches ``level`` (the group
        count when none does, or when ``lists`` is None for an infinite
        bound), and whether a ratio lies within the window of it. The
        ratios never decrease, so only the two next to ``level`` can."""
        if lists is None:
            return len(self.ends), False
        ratios, lows, highs = lists
        k = bisect_left(ratios, level)
        near = (k < len(ratios) and lows[k] <= level) or (k > 0 and highs[k - 1] >= level)
        return k, near

    def _ratio_lists(self, w: Fraction | None):
        """Per group, ``prefix / (suffix + w)`` and the levels at the edges
        of its window, ``ratio / (1 + eps)`` and ``ratio / (1 - eps)``; None
        for an infinite ``w``. A zero prefix never reaches a positive level
        (0), and a positive prefix over a zero denominator always does (inf)."""
        if w is None:
            return None
        if w not in self._ratios:
            ratios = [
                p / (s + w) if s + w else (math.inf if p else Fraction(0))
                for p, s in zip(self.prefix, self.suffix)
            ]
            self._ratios[w] = (
                ratios,
                [r / (1 + self.eps) for r in ratios],
                [r / (1 - self.eps) for r in ratios],
            )
        return self._ratios[w]
