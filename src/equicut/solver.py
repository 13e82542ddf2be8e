"""Equitable contiguous divisions by monotone bisection on the common value.

For a fixed player order the cuts are forced: each player in turn takes the
shortest prefix of the remaining cake worth a candidate value v to them.
What is left over for the last player, minus v, is a nonincreasing residual
in v that starts at 1 and ends nonpositive, so bisection brackets the
common value where all pieces agree. Zero-density plateaus can park a cut
anywhere in an interval of equal mass; a backward repair pass recenters
such cuts, and a projected-descent fallback on the sphere parametrization
picks up whatever remains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from . import topology
from .errors import InvalidPermutation, InvalidV, TooManyPlayers
from .measure import (
    Density,
    cumulative_mass,
    generalized_inverse,
    integral_on,
    plateau_end,
)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200
SWEEP_CAP = 8


@dataclass(frozen=True)
class Instance:
    """A division problem: one density per player plus the player order.

    ``sigma[k]`` is the (0-indexed) player who receives piece k, counting
    pieces from the left. Omitting sigma assigns pieces in player order.
    """

    densities: tuple[Density, ...]
    sigma: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "densities", tuple(self.densities))
        n = len(self.densities)
        if n == 0:
            raise InvalidPermutation("an instance needs at least one player")
        sigma = tuple(range(n)) if self.sigma is None else tuple(int(k) for k in self.sigma)
        if sorted(sigma) != list(range(n)):
            raise InvalidPermutation(f"sigma {sigma!r} is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return len(self.densities)

    def piece_owner(self, k: int) -> Density:
        return self.densities[self.sigma[k]]


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    REFINED_CONVERGED = "refined_converged"
    BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class EquitableSolution:
    """Cuts plus the diagnostics needed to judge them.

    ``gap`` is the spread between the best- and worst-off players' own
    values; ``value`` is their mean. ``residual_norm`` is the max norm of
    the sphere residual map at the cuts, an independent certificate.
    """

    cuts: tuple[float, ...]
    value: float
    gap: float
    status: SolveStatus
    residual_norm: float
    iterations: int


def chain_cuts(inst: Instance, v: float):
    """Build cuts left to right giving each piece value v to its owner.

    Returns ``(cuts, residual)`` where residual is the last player's
    leftover value minus v. When some player cannot reach v on what
    remains, returns ``(None, -v)``: infeasibility counts as overshoot.
    """
    if not 0.0 <= v <= 1.0:
        raise InvalidV(f"common value must lie in [0, 1], got {v!r}")
    cuts = []
    x = 0.0
    for k in range(inst.n - 1):
        x = generalized_inverse(inst.piece_owner(k), x, v)
        if x is None:
            return None, -v
        cuts.append(x)
    residual = integral_on(inst.piece_owner(inst.n - 1), x, 1.0) - v
    return tuple(cuts), residual


def piece_values(inst: Instance, cuts) -> tuple[float, ...]:
    """Each piece's value to the player who receives it."""
    edges = (0.0, *cuts, 1.0)
    return tuple(
        integral_on(inst.piece_owner(k), edges[k], edges[k + 1]) for k in range(inst.n)
    )


def _check_tol(tol) -> None:
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")


def solve_equitable(
    inst: Instance, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> EquitableSolution:
    """Find cuts whose per-piece values agree within tol.

    Bisection keeps the lower endpoint feasible (nonnegative residual), so
    its chain already gives every piece except the last exactly the
    candidate value; the loop narrows until the last piece agrees too.
    When plateaus stall the bracket the repair pass and then descent on the
    sphere take over, and the best cuts seen are returned with an honest
    status and gap.
    """
    _check_tol(tol)
    if inst.n == 1:
        own = integral_on(inst.densities[0], 0.0, 1.0)
        rn = topology.inf_norm(topology.residual_map(inst, (1.0,)))
        return EquitableSolution((), own, 0.0, SolveStatus.CONVERGED, rn, 0)

    # lockstep.bisect_orders runs this same loop for many orders at once
    # and must stay bit-identical to it
    lo, hi = 0.0, 1.0
    cuts_lo, r_lo = chain_cuts(inst, lo)
    iterations = 0
    while iterations < max_iter:
        # r_lo bounds the gap of the feasible chain from below the root;
        # stop only once that certificate is comfortably inside tol.
        if hi - lo < tol and r_lo <= 0.5 * tol:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        iterations += 1
        cuts_mid, r_mid = chain_cuts(inst, mid)
        if cuts_mid is not None and r_mid >= 0.0:
            lo, cuts_lo, r_lo = mid, cuts_mid, r_mid
        else:
            hi = mid
    return _finish(inst, cuts_lo, lo, iterations, tol, max_iter)


def _finish(
    inst: Instance, cuts_lo, lo: float, iterations: int, tol: float, max_iter: int
) -> EquitableSolution:
    """Judge the bisection's feasible chain, repair it if its gap exceeds
    tol, and certify the result."""
    # lockstep.finish_orders repeats the converged branch for many orders
    # at once and must stay bit-identical to it
    own = piece_values(inst, cuts_lo)
    gap = max(own) - min(own)
    best_cuts, best_own, best_gap = cuts_lo, own, gap
    status = SolveStatus.CONVERGED
    if gap > tol:
        refined = plateau_refine(inst, cuts_lo, lo, tol)
        own_r = piece_values(inst, refined)
        gap_r = max(own_r) - min(own_r)
        if gap_r <= best_gap:
            best_cuts, best_own, best_gap = refined, own_r, gap_r
        if best_gap <= tol:
            status = SolveStatus.REFINED_CONVERGED
        else:
            e = topology.descent_refine(
                inst, topology.cuts_to_sphere(best_cuts), tol=tol, max_iter=max_iter
            )
            cuts_d = topology.sphere_to_cuts(e)
            own_d = piece_values(inst, cuts_d)
            gap_d = max(own_d) - min(own_d)
            if gap_d < best_gap:
                best_cuts, best_own, best_gap = cuts_d, own_d, gap_d
            status = SolveStatus.BEST_EFFORT

    value = math.fsum(best_own) / inst.n
    residual_norm = topology.inf_norm(
        topology.residual_map(inst, topology.cuts_to_sphere(best_cuts))
    )
    return EquitableSolution(
        tuple(best_cuts), value, best_gap, status, residual_norm, iterations
    )


def plateau_refine(inst: Instance, cuts, v: float, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """Recenter cuts inside zero-density plateaus, right to left.

    Each cut may slide wherever its own piece stays within tol of v; within
    that window the pass targets the position giving the following piece
    exactly v, taking the midpoint of the overlap (or the nearest window
    endpoint when they do not overlap). Cut ordering is preserved.
    """
    n = inst.n
    if n <= 1 or not cuts:
        return tuple(cuts)
    xs = [0.0, *cuts, 1.0]
    for i in range(n - 1, 0, -1):
        d_own = inst.piece_owner(i - 1)
        d_next = inst.piece_owner(i)
        left, right = xs[i - 1], xs[i + 1]
        t_lo = generalized_inverse(d_own, left, max(v - tol, 0.0))
        if t_lo is None:
            continue
        z = generalized_inverse(d_own, left, v + tol)
        t_hi = 1.0 if z is None else plateau_end(d_own, z)
        t_lo, t_hi = max(t_lo, left), min(t_hi, right)
        if t_lo > t_hi:
            continue
        target = max(cumulative_mass(d_next, right) - v, 0.0)
        a = generalized_inverse(d_next, 0.0, target)
        if a is None:
            continue
        b = plateau_end(d_next, a)
        lo_w, hi_w = max(a, t_lo), min(b, t_hi)
        if lo_w <= hi_w:
            new_x = 0.5 * (lo_w + hi_w)
        elif b < t_lo:
            new_x = t_lo
        else:
            new_x = t_hi
        xs[i] = min(max(new_x, left), right)
    return tuple(xs[1:n])


def sweep_permutations(
    densities,
    tol: float = DEFAULT_TOL,
    *,
    cap: int = SWEEP_CAP,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Solve every player order and rank the results.

    Returns ``[(sigma, solution), ...]`` sorted by common value descending,
    ties broken by lexicographic sigma. Enumerating n! orders is refused
    above ``cap`` players. For n >= 2 all orders are solved together by
    ``lockstep.solve_orders``: the bisections run in lockstep as one
    vectorized kernel, and so do the piece values, gaps and residual
    certificates of the orders that converge. Orders whose gap exceeds tol
    go to the scalar plateau repair and descent fallback one at a time.
    Each solution equals what ``solve_equitable`` returns for that order.
    """
    densities = tuple(densities)
    n = len(densities)
    if n > cap:
        raise TooManyPlayers(
            f"{n} players means {math.factorial(n)} orders, above the cap of {cap} players"
        )
    _check_tol(tol)
    perms = list(itertools.permutations(range(n)))
    if n <= 1:
        solutions = [solve_equitable(Instance(densities, sigma), tol, max_iter) for sigma in perms]
    else:
        # numpy stays out of this module's imports, and so off the import
        # path of callers that never sweep
        from .lockstep import solve_orders

        solutions = solve_orders(densities, perms, tol, max_iter)
    rows = list(zip(perms, solutions))
    rows.sort(key=lambda row: (-row[1].value, row[0]))
    return rows
