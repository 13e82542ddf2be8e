"""Solve many player orders of the same densities at once.

``solve_orders`` returns, for every given order of the same densities,
what ``solver.solve_equitable`` returns for it. Each order is one lane of
numpy arrays, and both halves of the solve are batched across lanes:

* ``bisect_orders`` runs the bisection loop. Each chain step inverts the
  mass of piece k for every live lane in one vectorized pass over padded
  density tables.
* ``finish_orders`` runs the tail of ``solver._finish``: piece values,
  gap, common value and the residual certificate. Lanes whose gap exceeds
  tol go unchanged to the scalar ``_finish``, which holds the plateau
  repair and the descent fallback.

The results are bit-identical to the scalar code, not merely close: every
expression of ``measure.cumulative_mass``, ``measure.generalized_inverse``,
``measure.integral_on``, ``topology.cuts_to_sphere`` and
``topology.residual_map`` is repeated in the same operation order (float64
``+ - * / sqrt`` round the same in numpy as in Python), and the ``bisect``
searches become compare-and-count against each lane's own padded row,
which involves no arithmetic on the search keys. Offsetting rows into one
flat ``searchsorted`` would round them and is deliberately avoided. Sums
the scalar code takes with ``math.fsum`` stay ``math.fsum`` calls, since
numpy has no correctly rounded sum. The scalar input checks are kept: a
vectorized mask repeats each condition, and the scalar check then runs on
the first lane it flags, so the same ``EquicutError`` is raised.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import INVERSE_SLACK, PIECEWISE_LINEAR, cumulative_mass, integral_on
from .solver import EquitableSolution, Instance, SolveStatus, _finish
from .topology import SPHERE_TOL, check_on_sphere, validate_cuts


class _Tables:
    """Player densities packed into padded (players, width) rows.

    Breakpoints are padded with +inf and cumulative masses with the row
    total, so padding never counts in a ``<=`` or ``<`` search; values are
    padded with zeros. ``last`` is each row's largest piece index.
    """

    def __init__(self, densities):
        self.densities = tuple(densities)
        width = max(len(d.breakpoints) for d in self.densities)
        n = len(self.densities)
        self.bp = np.full((n, width), np.inf)
        self.cum = np.empty((n, width))
        self.vals = np.zeros((n, width))
        self.last = np.empty(n, dtype=np.intp)
        self.linear = np.empty(n, dtype=bool)
        for i, d in enumerate(self.densities):
            m = len(d.breakpoints)
            self.bp[i, :m] = d.breakpoints
            self.cum[i, :m] = d.cum_mass
            self.cum[i, m:] = d.cum_mass[-1]
            self.vals[i, : len(d.values)] = d.values
            self.last[i] = m - 2
            self.linear[i] = d.kind == PIECEWISE_LINEAR
        self.total = self.cum[:, -1].copy()
        # the last owner's cumulative mass at 1, as integral_on reads it
        self.mass_to_one = np.array([cumulative_mass(d, 1.0) for d in self.densities])

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


def solve_orders(densities, orders, tol: float, max_iter: int) -> list[EquitableSolution]:
    """``solver.solve_equitable(Instance(densities, sigma), tol, max_iter)``
    for every sigma in ``orders`` (permutations of ``range(n)``, n >= 2),
    in the same order. The density tables are built once for both halves."""
    tables = _Tables(densities)
    sigma = np.array(orders, dtype=np.intp)
    cuts, lo, iterations = bisect_orders(tables, sigma, tol, max_iter)
    return finish_orders(tables, sigma, cuts, lo, iterations, tol, max_iter)


def bisect_orders(tables: _Tables, sigma, tol: float, max_iter: int):
    """Bisect the common value of every order in lockstep.

    ``sigma`` is a (lanes, n) integer array of orders with n >= 2. Returns
    the arrays ``(cuts_lo, lo, iterations)``, one row or entry per lane:
    the feasible chain's cuts, the bracket's feasible end and the
    iteration count, exactly as the scalar loop in
    ``solver.solve_equitable`` leaves them for ``solver._finish``.
    """
    lanes, n = sigma.shape
    out_cuts = np.zeros((lanes, n - 1))
    out_lo = np.zeros(lanes)
    out_iter = np.zeros(lanes, dtype=np.intp)

    # v = 0: every cut sits at 0 and the last player keeps the whole cake
    start_residual = np.array([integral_on(d, 0.0, 1.0) for d in tables.densities])
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

    return out_cuts, out_lo, out_iter


def finish_orders(
    tables: _Tables, sigma, cuts, lo, iterations, tol: float, max_iter: int
) -> list[EquitableSolution]:
    """``solver._finish`` for every lane of ``bisect_orders``' output.

    Piece values and gaps are computed for all lanes together. A lane whose
    gap is within tol is ``converged``: its common value (``math.fsum`` of
    its row) and its residual certificate are computed here, and its
    solution is built directly. A lane whose gap exceeds tol goes, unchanged,
    to the scalar ``_finish``.
    """
    lanes, n = sigma.shape
    edges = np.concatenate((np.zeros((lanes, 1)), cuts, np.ones((lanes, 1))), axis=1)
    own = np.empty((lanes, n))
    for k in range(n):
        own[:, k] = tables.integral_on(sigma[:, k], edges[:, k], edges[:, k + 1])
    gap = own.max(1) - own.min(1)
    missed = gap > tol

    solutions = [None] * lanes
    for i in np.flatnonzero(missed).tolist():
        inst = Instance(tables.densities, sigma[i].tolist())
        solutions[i] = _finish(
            inst, tuple(cuts[i].tolist()), float(lo[i]), int(iterations[i]), tol, max_iter
        )

    # rows become Python floats one lane at a time; lists of whole arrays
    # would hold every lane's floats at once
    ok = ~missed
    norms = _residual_norms(tables, sigma[ok], edges[ok])
    for i, cuts_i, own_i, gap_i, norm, its in zip(
        np.flatnonzero(ok).tolist(),
        cuts[ok],
        own[ok],
        gap[ok].tolist(),
        norms.tolist(),
        iterations[ok].tolist(),
    ):
        solutions[i] = EquitableSolution(
            tuple(cuts_i.tolist()),
            math.fsum(own_i.tolist()) / n,
            gap_i,
            SolveStatus.CONVERGED,
            norm,
            its,
        )
    return solutions


def _residual_norms(tables: _Tables, sigma, edges):
    """``inf_norm(residual_map(inst, cuts_to_sphere(cuts)))`` per lane,
    from each lane's edges (0, *cuts, 1)."""
    lanes, n = sigma.shape
    cuts = edges[:, 1:-1]
    # validate_cuts: inside [0, 1] and nondecreasing from 0
    bad = (~((0.0 <= cuts) & (cuts <= 1.0)) | (cuts < edges[:, :-2])).any(1)
    if bad.any():
        validate_cuts(cuts[np.argmax(bad)].tolist())
    e = np.sqrt(np.maximum(edges[:, 1:] - edges[:, :-1], 0.0))
    off = np.abs(np.array([math.fsum(row.tolist()) for row in e * e]) - 1.0) > SPHERE_TOL
    if off.any():
        check_on_sphere(e[np.argmax(off)].tolist())

    # residual_map's loop, one piece per step for all lanes
    s = e[:, 0] * e[:, 0]
    first = np.sign(e[:, 0]) * tables.integral_on(sigma[:, 0], np.zeros(lanes), np.minimum(s, 1.0))
    norm = np.zeros(lanes)
    for k in range(1, n):
        lo = np.minimum(s, 1.0)
        s = s + e[:, k] * e[:, k]
        hi = np.minimum(np.maximum(s, lo), 1.0)
        term = np.sign(e[:, k]) * tables.integral_on(sigma[:, k], lo, hi)
        norm = np.maximum(norm, np.abs(term - first))
    return norm
