"""Piece tables of several densities, packed into padded numpy rows.

``_Tables`` answers ``measure``'s queries for many lanes at once, each lane
reading its own density's row, for the sweep kernel in ``lockstep`` and the
grid oracle (kept apart so the oracle does not load the kernel). Every
scalar expression is repeated in the same operation order, and float64
``+ - * / sqrt`` round alike in numpy and Python, so results are
bit-identical to ``measure``. ``bisect`` searches become compare-and-count
against each lane's own row: one flat ``searchsorted`` over offset rows
would round the keys.
"""

from __future__ import annotations

import numpy as np

from .measure import INVERSE_SLACK, cumulative_mass, integral_on


class _Tables:
    """Player densities packed into padded (players, width) rows.

    Breakpoints are padded with +inf and cumulative masses with the row
    total, so padding never counts in a ``<=`` or ``<`` search; values and
    slopes are padded with zeros. ``last`` is each row's largest piece
    index.
    """

    def __init__(self, densities):
        self.densities = tuple(densities)
        width = max(len(d.breakpoints) for d in self.densities)
        n = len(self.densities)
        self.bp = np.full((n, width), np.inf)
        self.cum = np.empty((n, width))
        self.vals = np.zeros((n, width))
        self.slopes = np.zeros((n, width))
        self.last = np.empty(n, dtype=np.intp)
        for i, d in enumerate(self.densities):
            m = len(d.breakpoints)
            self.bp[i, :m] = d.breakpoints
            self.cum[i, :m] = d.cum_mass
            self.cum[i, m:] = d.cum_mass[-1]
            self.vals[i, : len(d.values)] = d.values
            self.slopes[i, : m - 1] = d.slopes
            self.last[i] = m - 2
        self.total = self.cum[:, -1].copy()
        # the last owner's cumulative mass at 1, as integral_on reads it
        self.mass_to_one = np.array([cumulative_mass(d, 1.0) for d in self.densities])

    def cumulative_mass(self, rows, x):
        """``measure.cumulative_mass(densities[rows[i]], x[i])`` per lane.
        ``rows`` may also be one row index, shared by every lane."""
        j = (self.bp[rows] <= x[:, None]).sum(1) - 1
        j = np.minimum(np.maximum(j, 0), self.last[rows])
        u = x - self.bp[rows, j]
        return self.cum[rows, j] + u * (self.vals[rows, j] + 0.5 * self.slopes[rows, j] * u)

    def integral_on(self, rows, a, b):
        """``measure.integral_on(densities[rows[i]], a[i], b[i])`` per lane.
        A bad interval raises what the scalar call raises for the first
        such lane."""
        bad = ~((0.0 <= a) & (a <= b) & (b <= 1.0))
        if bad.any():
            i = np.argmax(bad)
            integral_on(self.densities[rows[i]], float(a[i]), float(b[i]))
        mass = self.cumulative_mass(rows, b) - self.cumulative_mass(rows, a)
        return np.minimum(np.maximum(mass, 0.0), 1.0)

    def inverse(self, rows, a, t):
        """``measure.generalized_inverse(densities[rows[i]], a[i], t[i])``
        per lane for targets t > 0, plus a mask of the lanes where it
        returns None (their x is left meaningless)."""
        total = self.total[rows]
        start = self.cumulative_mass(rows, a)
        short = total - start < t - INVERSE_SLACK
        target = np.minimum(start + t, total)
        j = np.maximum((self.cum[rows] < target[:, None]).sum(1) - 1, 0)
        delta = target - self.cum[rows, j]
        left = self.bp[rows, j]
        right = self.bp[rows, j + 1]
        v0 = self.vals[rows, j]
        slope = self.slopes[rows, j]
        # both of measure.generalized_inverse's formulas run on every lane;
        # the unused one may divide by zero
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = v0 * v0 + 2.0 * slope * delta
            denom = v0 + np.sqrt(np.maximum(disc, 0.0))
            u = np.where(denom <= 0.0, right - left, 2.0 * delta / denom)
            u = np.where(slope == 0.0, delta / v0, u)
        x = np.minimum(np.maximum(left + u, left), right)
        return np.minimum(np.maximum(x, a), 1.0), short
