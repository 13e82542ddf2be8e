"""Bisection on the common value for many player orders at once.

``bisect_orders`` runs the bisection loop of ``solver.solve_equitable`` for
every given order of the same densities together, one lane per order, as
numpy arrays. Each chain step inverts the mass of piece k for every live
lane in one vectorized pass over padded density tables.

The results are bit-identical to the scalar loop, not merely close: every
expression of ``measure.cumulative_mass`` and ``measure.generalized_inverse``
is repeated in the same operation order (float64 ``+ - * / sqrt`` round the
same in numpy as in Python), and the ``bisect`` searches become
compare-and-count against each lane's own padded row, which involves no
arithmetic on the search keys. Offsetting rows into one flat
``searchsorted`` would round them and is deliberately avoided.
"""

from __future__ import annotations

import numpy as np

from .measure import INVERSE_SLACK, PIECEWISE_LINEAR, cumulative_mass, integral_on


class _Tables:
    """Player densities packed into padded (players, width) rows.

    Breakpoints are padded with +inf and cumulative masses with the row
    total, so padding never counts in a ``<=`` or ``<`` search; values are
    padded with zeros. ``last`` is each row's largest piece index.
    """

    def __init__(self, densities):
        width = max(len(d.breakpoints) for d in densities)
        n = len(densities)
        self.bp = np.full((n, width), np.inf)
        self.cum = np.empty((n, width))
        self.vals = np.zeros((n, width))
        self.last = np.empty(n, dtype=np.intp)
        self.linear = np.empty(n, dtype=bool)
        for i, d in enumerate(densities):
            m = len(d.breakpoints)
            self.bp[i, :m] = d.breakpoints
            self.cum[i, :m] = d.cum_mass
            self.cum[i, m:] = d.cum_mass[-1]
            self.vals[i, : len(d.values)] = d.values
            self.last[i] = m - 2
            self.linear[i] = d.kind == PIECEWISE_LINEAR
        self.total = self.cum[:, -1].copy()
        # the last owner's cumulative mass at 1, as integral_on reads it
        self.mass_to_one = np.array([cumulative_mass(d, 1.0) for d in densities])

    def _piece(self, rows, j):
        """Breakpoints, width, left value and slope of piece j of each
        lane's row; the slope is only meaningful on linear rows."""
        left = self.bp[rows, j]
        right = self.bp[rows, j + 1]
        width = right - left
        v0 = self.vals[rows, j]
        slope = (self.vals[rows, j + 1] - v0) / width
        return left, right, width, v0, slope

    def cumulative_mass(self, rows, x):
        """``measure.cumulative_mass(densities[rows[i]], x[i])`` per lane."""
        j = (self.bp[rows] <= x[:, None]).sum(1) - 1
        j = np.minimum(np.maximum(j, 0), self.last[rows])
        left, _, _, v0, slope = self._piece(rows, j)
        u = x - left
        cum = self.cum[rows, j]
        return np.where(self.linear[rows], cum + u * (v0 + 0.5 * slope * u), cum + v0 * u)

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
        left, right, width, v0, slope = self._piece(rows, j)
        # both kinds' formulas run on every lane; the unused one may divide
        # by zero or take the root of a negative number
        with np.errstate(divide="ignore", invalid="ignore"):
            u_constant = delta / v0
            disc = v0 * v0 + 2.0 * slope * delta
            denom = v0 + np.sqrt(np.maximum(disc, 0.0))
            u_linear = np.where(denom <= 0.0, width, 2.0 * delta / denom)
        u = np.where(self.linear[rows], u_linear, u_constant)
        x = np.minimum(np.maximum(left + u, left), right)
        return np.minimum(np.maximum(x, a), 1.0), short


def bisect_orders(densities, orders, tol: float, max_iter: int):
    """Bisect the common value of every order in lockstep.

    ``orders`` holds permutations of ``range(n)`` with n >= 2. Returns one
    ``(cuts_lo, lo, iterations)`` per order: the feasible chain's cuts as a
    tuple of floats, the bracket's feasible end and the iteration count,
    exactly as the scalar loop in ``solver.solve_equitable`` leaves them.
    """
    tables = _Tables(densities)
    sigma = np.array(orders, dtype=np.intp)
    lanes, n = sigma.shape
    out_cuts = np.zeros((lanes, n - 1))
    out_lo = np.zeros(lanes)
    out_iter = np.zeros(lanes, dtype=np.intp)

    # v = 0: every cut sits at 0 and the last player keeps the whole cake
    start_residual = np.array([integral_on(d, 0.0, 1.0) for d in densities])
    ids = np.arange(lanes)
    lo = np.zeros(lanes)
    hi = np.ones(lanes)
    r_lo = start_residual[sigma[:, -1]]
    cuts_lo = np.zeros((lanes, n - 1))
    iterations = 0
    while ids.size:
        mid = 0.5 * (lo + hi)
        if iterations >= max_iter:
            done = np.ones(ids.size, dtype=bool)
        else:
            done = ((hi - lo < tol) & (r_lo <= 0.5 * tol)) | ~((lo < mid) & (mid < hi))
        if done.any():
            retired = ids[done]
            out_cuts[retired] = cuts_lo[done]
            out_lo[retired] = lo[done]
            out_iter[retired] = iterations
            keep = ~done
            ids, sigma, lo, hi, r_lo, cuts_lo, mid = (
                arr[keep] for arr in (ids, sigma, lo, hi, r_lo, cuts_lo, mid)
            )
            if not ids.size:
                break
        iterations += 1

        cuts_mid = np.empty_like(cuts_lo)
        x = np.zeros(ids.size)
        infeasible = np.zeros(ids.size, dtype=bool)
        for k in range(n - 1):
            x, short = tables.inverse(sigma[:, k], x, mid)
            infeasible |= short
            cuts_mid[:, k] = x
        last = sigma[:, -1]
        mass = tables.mass_to_one[last] - tables.cumulative_mass(last, x)
        r_mid = np.minimum(np.maximum(mass, 0.0), 1.0) - mid

        up = ~infeasible & (r_mid >= 0.0)
        lo = np.where(up, mid, lo)
        r_lo = np.where(up, r_mid, r_lo)
        cuts_lo[up] = cuts_mid[up]
        hi = np.where(up, hi, mid)

    return [
        (tuple(cuts), lo_, it)
        for cuts, lo_, it in zip(out_cuts.tolist(), out_lo.tolist(), out_iter.tolist())
    ]
