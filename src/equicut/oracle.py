"""Exhaustive grid search for near-equitable cut vectors.

Deliberately brute force and kept that way: every nondecreasing cut vector
on a uniform grid is scored by its equitability gap, so the result is a
reference point the solver can be compared against, not a fast path. Cost
grows like (1/resolution)^(n-1); the player cap keeps that honest.
"""

from __future__ import annotations

from .errors import ResolutionTooFine, TooManyPlayers

MAX_PLAYERS = 4
MIN_RESOLUTION = 1e-4


def grid_search_equitable(inst, resolution: float):
    """Best cut vector on the grid of spacing ``resolution``.

    Returns ``(cuts, gap)`` minimizing the spread between assigned piece
    values; among minimizers the lexicographically smallest cut vector
    wins. Refuses more than MAX_PLAYERS players and resolutions below
    MIN_RESOLUTION.
    """
    n = inst.n
    if n > MAX_PLAYERS:
        raise TooManyPlayers(f"grid search supports at most {MAX_PLAYERS} players, got {n}")
    if not resolution >= MIN_RESOLUTION:
        raise ResolutionTooFine(f"resolution must be at least {MIN_RESOLUTION}, got {resolution!r}")
    if n == 1:
        return (), 0.0
    # numpy is imported here, not at module level, so importing the package
    # (and the CLI) does not pay for it
    import numpy as np

    from .tables import _Tables

    steps = max(int(round(1.0 / resolution)), 1)
    grid = np.linspace(0.0, 1.0, steps + 1)
    tables = _Tables(inst.piece_owner(k) for k in range(n))
    cdf = [tables.cumulative_mass(k, grid) for k in range(n)]
    totals = [float(c[-1]) for c in cdf]

    if n == 2:
        gaps = np.abs(cdf[0] - (totals[1] - cdf[1]))
        i = int(np.argmin(gaps))
        return (float(grid[i]),), float(gaps[i])

    best_gap = np.inf
    best = None
    if n == 3:
        c0, c1, c2 = cdf
        for i in range(len(grid)):
            own0 = c0[i]
            tail1 = c1[i:] - c1[i]
            tail2 = totals[2] - c2[i:]
            top = np.maximum(np.maximum(tail1, tail2), own0)
            bot = np.minimum(np.minimum(tail1, tail2), own0)
            gaps = top - bot
            k = int(np.argmin(gaps))
            if gaps[k] < best_gap:
                best_gap = float(gaps[k])
                best = (float(grid[i]), float(grid[i + k]))
        return best, best_gap

    c0, c1, c2, c3 = cdf
    for i in range(len(grid)):
        own0 = c0[i]
        for j in range(i, len(grid)):
            own1 = c1[j] - c1[i]
            tail2 = c2[j:] - c2[j]
            tail3 = totals[3] - c3[j:]
            top = np.maximum(np.maximum(tail2, tail3), max(own0, own1))
            bot = np.minimum(np.minimum(tail2, tail3), min(own0, own1))
            gaps = top - bot
            k = int(np.argmin(gaps))
            if gaps[k] < best_gap:
                best_gap = float(gaps[k])
                best = (float(grid[i]), float(grid[j]), float(grid[j + k]))
    return best, best_gap
