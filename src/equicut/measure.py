"""Piecewise valuation densities on [0, 1] with closed-form interval masses.

Each player's preferences are a nonnegative density on the unit interval,
normalized to total mass 1 and described in one of two kinds:

* ``piecewise_constant``: one height per piece ``[b_k, b_{k+1})``
* ``piecewise_linear``: one value per breakpoint, interpolated linearly

Both load into one piece table (see :class:`Density`), which every query
reads through one piecewise-quadratic antiderivative, never by quadrature.

The half-open piece convention matters only for point evaluation; measures
here are atomless, so it never changes an integral.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    MalformedBreakpoints,
    NegativeTarget,
    NegativeValue,
    OutOfRange,
    ReversedInterval,
    ZeroMass,
)

PIECEWISE_CONSTANT = "piecewise_constant"
PIECEWISE_LINEAR = "piecewise_linear"
KINDS = (PIECEWISE_CONSTANT, PIECEWISE_LINEAR)

#: Shortfall below which the remaining cake counts as "just enough" when
#: inverting a mass target, so accumulated rounding near the right end does
#: not report a feasible target as infeasible.
INVERSE_SLACK = 1e-15


@dataclass(frozen=True)
class Density:
    """A normalized piecewise density. Build instances through
    :func:`validate_and_normalize` (or the convenience constructors below);
    the raw constructor performs no checks.

    Piece k starts at height ``values[k]`` with slope ``slopes[k]`` (0 on
    constant pieces) and has mass ``cum_mass[k + 1] - cum_mass[k]``. Both
    tuples are built once; ``kind`` only says how values map to pieces, and
    no query reads it. ``scale`` records the factor the raw values were
    divided by, so the original description is recoverable.
    """

    kind: str
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    scale: float = 1.0

    @cached_property
    def cum_mass(self) -> tuple[float, ...]:
        """Mass of [0, b_k] for every breakpoint b_k."""
        bp, v = self.breakpoints, self.values
        linear = self.kind != PIECEWISE_CONSTANT
        out = [0.0]
        for k in range(len(bp) - 1):
            height = 0.5 * (v[k] + v[k + 1]) if linear else v[k]
            out.append(out[-1] + height * (bp[k + 1] - bp[k]))
        return tuple(out)

    @cached_property
    def slopes(self) -> tuple[float, ...]:
        """Slope of every piece, 0.0 on constant ones; built on first use,
        as building it at load raised the peak memory of many densities."""
        return _slopes(self.kind, self.breakpoints, self.values)

    @property
    def max_height(self) -> float:
        return max(self.values)

    def piece_index(self, x: float) -> int:
        """Index k with b_k <= x < b_{k+1}; the last piece claims x = 1."""
        k = bisect_right(self.breakpoints, x) - 1
        return min(max(k, 0), len(self.breakpoints) - 2)


def _slopes(kind: str, bp, v) -> tuple[float, ...]:
    if kind == PIECEWISE_CONSTANT:
        return (0.0,) * len(v)
    return tuple((v[k + 1] - v[k]) / (bp[k + 1] - bp[k]) for k in range(len(bp) - 1))


def validate_and_normalize(kind: str, breakpoints, values) -> Density:
    """Check a raw density description and scale it to total mass 1.

    Raises MalformedBreakpoints, NegativeValue, or ZeroMass on bad input.
    The returned density's ``scale`` is the divisor that was applied.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown density kind {kind!r}, expected one of {KINDS}")
    bp = tuple(float(b) for b in breakpoints)
    if len(bp) < 2:
        raise MalformedBreakpoints("need at least two breakpoints")
    if bp[0] != 0.0 or bp[-1] != 1.0:
        raise MalformedBreakpoints(
            f"breakpoints must run from 0 to 1, got [{bp[0]!r}, {bp[-1]!r}]"
        )
    if any(not lo < hi for lo, hi in zip(bp, bp[1:])):
        raise MalformedBreakpoints("breakpoints must be strictly increasing")
    vals = tuple(float(v) for v in values)
    expected = len(bp) - 1 if kind == PIECEWISE_CONSTANT else len(bp)
    if len(vals) != expected:
        raise MalformedBreakpoints(
            f"{kind} with {len(bp)} breakpoints needs {expected} values, got {len(vals)}"
        )
    if any(not v >= 0.0 for v in vals):  # also catches NaN
        raise NegativeValue("density values must be nonnegative")
    if any(math.isinf(v) for v in vals):
        raise NegativeValue("density values must be finite")
    total = Density(kind, bp, vals).cum_mass[-1]
    if not math.isfinite(total):
        raise NegativeValue("density values overflow when integrated")
    if total <= 0.0:
        raise ZeroMass("density integrates to zero")
    d = Density(kind, bp, tuple(v / total for v in vals), total)
    if not math.isfinite(max(d.values)):
        raise NegativeValue(f"density values overflow when divided by their total {total!r}")
    if not all(map(math.isfinite, _slopes(kind, bp, d.values))):
        raise NegativeValue("density slope overflows: a piece is too narrow for its rise")
    return d


def uniform() -> Density:
    """The constant density of mass 1 on [0, 1]."""
    return validate_and_normalize(PIECEWISE_CONSTANT, (0.0, 1.0), (1.0,))


def piecewise_constant(breakpoints, heights) -> Density:
    return validate_and_normalize(PIECEWISE_CONSTANT, breakpoints, heights)


def piecewise_linear(breakpoints, knots) -> Density:
    return validate_and_normalize(PIECEWISE_LINEAR, breakpoints, knots)


def cumulative_mass(d: Density, x: float) -> float:
    """Mass of [0, x], read off the piecewise antiderivative."""
    j = d.piece_index(x)
    u = x - d.breakpoints[j]
    return d.cum_mass[j] + u * (d.values[j] + 0.5 * d.slopes[j] * u)


def integral_on(d: Density, a: float, b: float) -> float:
    """Mass of [a, b], clamped into [0, 1] against rounding."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise OutOfRange(f"interval [{a!r}, {b!r}] not inside [0, 1]")
    if a > b:
        raise ReversedInterval(f"interval endpoints reversed: {a!r} > {b!r}")
    mass = cumulative_mass(d, b) - cumulative_mass(d, a)
    return min(max(mass, 0.0), 1.0)


def generalized_inverse(d: Density, a: float, t: float, slack: float = INVERSE_SLACK):
    """Smallest x in [a, 1] with mass of [a, x] at least t.

    Returns None when the remaining cake holds less than t (minus a small
    slack, so a target equal to the leftover mass up to rounding still
    resolves to the end of the support). For t = 0 the answer is a itself,
    even inside a zero-density plateau: ties resolve to the left end.
    """
    if not 0.0 <= a <= 1.0:
        raise OutOfRange(f"start point {a!r} not inside [0, 1]")
    if not t >= 0.0:
        raise NegativeTarget(f"mass target must be nonnegative, got {t!r}")
    if t == 0.0:
        return a
    total = d.cum_mass[-1]
    start = cumulative_mass(d, a)
    if total - start < t - slack:
        return None
    target = min(start + t, total)
    idx = bisect_left(d.cum_mass, target)
    j = max(idx - 1, 0)
    delta = target - d.cum_mass[j]
    bp = d.breakpoints
    v0 = d.values[j]
    slope = d.slopes[j]
    if slope == 0.0:
        # the root below equals this only while v0*v0 is a normal float
        u = delta / v0
    else:
        # Solve v0*u + s*u^2/2 = delta for u; the rationalized root is
        # stable when v0 and s*delta have opposite signs.
        disc = v0 * v0 + 2.0 * slope * delta
        denom = v0 + math.sqrt(max(disc, 0.0))
        u = bp[j + 1] - bp[j] if denom <= 0.0 else 2.0 * delta / denom
    x = bp[j] + u
    x = min(max(x, bp[j]), bp[j + 1])
    return min(max(x, a), 1.0)


def plateau_end(d: Density, x: float) -> float:
    """Right end of the zero-density run starting at x (x itself if none).

    Every point in [x, plateau_end(d, x)] carries the same cumulative mass,
    which is what makes cut positions inside a plateau interchangeable.
    """
    if x >= 1.0:
        return 1.0
    end = x
    for k in range(d.piece_index(x), len(d.breakpoints) - 1):
        if d.values[k] != 0.0 or d.slopes[k] != 0.0:
            break
        end = d.breakpoints[k + 1]
    return min(end, 1.0)
