"""Fairness evaluation of a contiguous division.

Builds the full valuation matrix (every player's value of every piece) and
reports the four classical criteria with margins rather than bare flags:
equitability, proportionality, envy-freeness, and exactness.

The matrix is n x n with n the player count, so everything here is plain
Python; numpy is imported only by ``valuation_matrix``, whose callers ask
for an ndarray, and so stays off the import path of the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, NonFiniteEntry
from .measure import integral_on
from .topology import validate_cuts

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class FairnessReport:
    equitable_gap: float
    proportional_ok: bool
    proportional_margin: float
    envy_free_ok: bool
    worst_envy: float
    exact_gap: float
    assigned_values: tuple[float, ...]


def _check_sigma(sigma, n: int) -> tuple[int, ...]:
    sigma = tuple(int(k) for k in sigma)
    if sorted(sigma) != list(range(n)):
        raise DimensionMismatch(f"sigma {sigma!r} is not a permutation of 0..{n - 1}")
    return sigma


def valuation_rows(densities, cuts, sigma=None) -> tuple[tuple[float, ...], ...]:
    """Rows of the valuation matrix: entry (i, j) is player i's value of piece j.

    Pieces are indexed by position from the left; who owns which piece is
    sigma's business and only enters through fairness_report. Rows sum to
    each player's total mass, i.e. to 1 up to rounding.
    """
    densities = tuple(densities)
    cuts = tuple(float(x) for x in cuts)
    n = len(densities)
    if len(cuts) != n - 1:
        raise DimensionMismatch(f"expected {n - 1} cuts for {n} players, got {len(cuts)}")
    if sigma is not None:
        _check_sigma(sigma, n)
    validate_cuts(cuts)
    edges = (0.0, *cuts, 1.0)
    return tuple(tuple(integral_on(d, edges[j], edges[j + 1]) for j in range(n)) for d in densities)


def valuation_matrix(densities, cuts, sigma=None) -> np.ndarray:
    """``valuation_rows`` as an n x n float64 ndarray."""
    import numpy as np

    return np.array(valuation_rows(densities, cuts, sigma))


def _square_rows(matrix) -> tuple[tuple[float, ...], ...]:
    """A square matrix (nested sequence or 2-D ndarray) as rows of finite floats."""
    if getattr(matrix, "ndim", 2) != 2:
        raise DimensionMismatch(f"valuation matrix must be square, got shape {matrix.shape}")
    try:
        rows = tuple(tuple(float(x) for x in row) for row in matrix)
    except TypeError as exc:
        raise DimensionMismatch(f"valuation matrix must be a square table of numbers: {exc}") from exc
    lengths = [len(row) for row in rows]
    if not rows or any(k != len(rows) for k in lengths):
        raise DimensionMismatch(f"valuation matrix must be square, got row lengths {lengths}")
    if not all(math.isfinite(x) for row in rows for x in row):
        raise NonFiniteEntry("valuation matrix entries must be finite numbers")
    return rows


def fairness_report(matrix, sigma, tol: float = 1e-9) -> FairnessReport:
    """Judge a division from its valuation matrix and piece assignment.

    Player i's own piece is the one sigma maps to them; the report compares
    own values against each other (equitable gap), against the 1/n ideal
    (proportional margin, exact gap), and against the other pieces through
    their own eyes (worst envy). Flags allow slack tol. Every figure is one
    float64 subtraction, ``abs``, ``min`` or ``max``, so it equals what the
    same formula gives in numpy.
    """
    rows = _square_rows(matrix)
    n = len(rows)
    sigma = _check_sigma(sigma, n)
    own = [0.0] * n
    for piece, player in enumerate(sigma):
        own[player] = rows[player][piece]
    fair_share = 1.0 / n
    proportional_margin = min(own) - fair_share
    worst_envy = max(x - mine for row, mine in zip(rows, own) for x in row)
    return FairnessReport(
        equitable_gap=max(own) - min(own),
        proportional_ok=proportional_margin >= -tol,
        proportional_margin=proportional_margin,
        envy_free_ok=worst_envy <= tol,
        worst_envy=worst_envy,
        exact_gap=max(abs(x - fair_share) for row in rows for x in row),
        assigned_values=tuple(own),
    )
