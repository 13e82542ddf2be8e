"""Solve many player orders of the same densities at once.

``solve_orders`` returns, for every given order of the same densities,
what ``solver.solve_equitable`` returns for it. Each order is one lane of
numpy arrays, and both halves of the solve are batched across lanes:

* ``bisect_orders`` runs the bisection loop. Each chain step inverts the
  mass of piece k for every live lane in one vectorized pass over the
  densities' piece tables (``tables._Tables``).
* ``finish_orders`` runs the tail of ``solver._finish``: piece values,
  gap, common value and the residual certificate. Lanes whose gap exceeds
  tol go unchanged to the scalar ``_finish``, which holds the plateau
  repair and the descent fallback.

The results are bit-identical to the scalar code, not merely close: the
tables repeat ``measure``'s queries exactly, and every expression of
``topology.cuts_to_sphere`` and ``topology.residual_map`` is repeated here
in the same operation order. Sums the scalar code takes with ``math.fsum``
stay ``math.fsum`` calls, since numpy has no correctly rounded sum. The
scalar input checks are kept: a vectorized mask repeats each condition,
and the scalar check then runs on the first lane it flags, so the same
``EquicutError`` is raised.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import integral_on
from .solver import EquitableSolution, Instance, SolveStatus, _finish
from .tables import _Tables
from .topology import SPHERE_TOL, check_on_sphere, validate_cuts


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
