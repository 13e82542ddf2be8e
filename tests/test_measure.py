import math
import random
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from equicut.errors import (
    MalformedBreakpoints,
    NegativeTarget,
    NegativeValue,
    OutOfRange,
    ReversedInterval,
    ZeroMass,
)
from equicut.lockstep import _Tables
from equicut.measure import (
    INVERSE_SLACK,
    KINDS,
    PIECEWISE_CONSTANT,
    PIECEWISE_LINEAR,
    cumulative_mass,
    generalized_inverse,
    integral_on,
    piecewise_constant,
    piecewise_linear,
    plateau_end,
    uniform,
    validate_and_normalize,
)
from helpers import random_density


def quad_mass(d, a, b):
    """Independent reference: numerical quadrature of the density itself."""

    def f(x):
        k = d.piece_index(x)
        if d.kind == PIECEWISE_CONSTANT:
            return d.values[k]
        lo, hi = d.breakpoints[k], d.breakpoints[k + 1]
        w = (x - lo) / (hi - lo)
        return d.values[k] * (1.0 - w) + d.values[k + 1] * w

    inner = [p for p in d.breakpoints if a < p < b]
    value, _ = quad(f, a, b, points=inner or None, limit=200)
    return value


@st.composite
def densities(draw, max_pieces=5, min_height=0.0):
    kind = draw(st.sampled_from(KINDS))
    pieces = draw(st.integers(1, max_pieces))
    interior = draw(
        st.lists(st.integers(1, 99), min_size=pieces - 1, max_size=pieces - 1, unique=True)
    )
    breakpoints = [0.0, *sorted(i / 100.0 for i in interior), 1.0]
    count = pieces if kind == PIECEWISE_CONSTANT else pieces + 1
    values = draw(
        st.lists(
            st.floats(min_height, 4.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    if kind == PIECEWISE_LINEAR:
        # equal adjacent knots make flat linear pieces (slope 0), and equal
        # knots at zero make zero plateaus
        flats = ("tie", "zero") if min_height == 0.0 else ("tie",)
        marks = draw(
            st.lists(st.sampled_from((None, *flats)), min_size=count - 1, max_size=count - 1)
        )
        for k, mark in enumerate(marks):
            if mark == "zero":
                values[k] = values[k + 1] = 0.0
            elif mark == "tie":
                values[k + 1] = values[k]
    assume(max(values) > 1e-9)
    return validate_and_normalize(kind, breakpoints, values)


points = st.floats(0.0, 1.0)


class TestValidateAndNormalize:
    def test_uniform_needs_no_scaling(self):
        d = uniform()
        assert d.values == (1.0,)
        assert d.scale == 1.0

    def test_constant_two_scales_by_two(self):
        d = piecewise_constant((0.0, 1.0), (2.0,))
        assert d.values == (1.0,)
        assert d.scale == 2.0

    def test_scale_recovers_raw_values(self):
        d = piecewise_constant((0.0, 0.25, 1.0), (3.0, 1.0))
        assert [v * d.scale for v in d.values] == pytest.approx([3.0, 1.0], abs=1e-15)

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMass):
            piecewise_constant((0.0, 1.0), (0.0,))

    def test_linear_zero_mass_rejected(self):
        with pytest.raises(ZeroMass):
            piecewise_linear((0.0, 1.0), (0.0, 0.0))

    def test_breakpoints_must_increase(self):
        with pytest.raises(MalformedBreakpoints):
            piecewise_constant((0.0, 0.5, 0.4, 1.0), (1.0, 1.0, 1.0))

    def test_breakpoints_must_span_unit_interval(self):
        with pytest.raises(MalformedBreakpoints):
            piecewise_constant((0.1, 1.0), (1.0,))
        with pytest.raises(MalformedBreakpoints):
            piecewise_constant((0.0, 0.9), (1.0,))

    def test_single_breakpoint_rejected(self):
        with pytest.raises(MalformedBreakpoints):
            piecewise_constant((0.0,), ())

    def test_value_count_must_match(self):
        with pytest.raises(MalformedBreakpoints):
            piecewise_constant((0.0, 0.5, 1.0), (1.0,))
        with pytest.raises(MalformedBreakpoints):
            piecewise_linear((0.0, 1.0), (1.0,))

    def test_negative_value_rejected(self):
        with pytest.raises(NegativeValue):
            piecewise_constant((0.0, 0.5, 1.0), (1.0, -0.5))

    def test_nan_value_rejected(self):
        with pytest.raises(NegativeValue):
            piecewise_constant((0.0, 1.0), (float("nan"),))

    def test_nan_breakpoint_rejected(self):
        with pytest.raises(MalformedBreakpoints):
            piecewise_constant((0.0, float("nan"), 1.0), (1.0, 1.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            validate_and_normalize("spline", (0.0, 1.0), (1.0,))

    def test_values_overflowing_on_normalization_rejected(self):
        # the raw total is subnormal, so dividing by it overflows
        with pytest.raises(NegativeValue, match="divided by their total"):
            piecewise_constant((0.0, 5e-324, 1.0), (1.0, 0.0))

    def test_overflowing_slope_rejected(self):
        with pytest.raises(NegativeValue, match="slope"):
            piecewise_linear((0.0, 5e-324, 1.0), (0.0, 1.0, 1.0))


class TestIntegralOn:
    def test_uniform_interval(self):
        assert integral_on(uniform(), 0.2, 0.5) == pytest.approx(0.3, abs=1e-15)

    def test_linear_ramp(self):
        # density 2x integrates to x^2
        d = piecewise_linear((0.0, 1.0), (0.0, 2.0))
        assert integral_on(d, 0.0, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_right_loaded_plateau(self):
        d = piecewise_constant((0.0, 0.5, 1.0), (0.0, 2.0))
        assert integral_on(d, 0.0, 0.75) == pytest.approx(0.5, abs=1e-15)

    def test_empty_interval_is_zero(self):
        assert integral_on(uniform(), 0.4, 0.4) == 0.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            integral_on(uniform(), -0.1, 0.5)
        with pytest.raises(OutOfRange):
            integral_on(uniform(), 0.5, 1.1)

    def test_reversed_interval(self):
        with pytest.raises(ReversedInterval):
            integral_on(uniform(), 0.6, 0.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_quadrature(self, seed):
        rng = random.Random(seed)
        d = random_density(rng)
        a, b = sorted((rng.random(), rng.random()))
        assert integral_on(d, a, b) == pytest.approx(quad_mass(d, a, b), abs=1e-9)


class TestGeneralizedInverse:
    def test_uniform(self):
        assert generalized_inverse(uniform(), 0.0, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_skips_leading_plateau(self):
        d = piecewise_constant((0.0, 0.5, 1.0), (0.0, 2.0))
        assert generalized_inverse(d, 0.0, 0.1) == pytest.approx(0.55, abs=1e-15)

    def test_zero_target_sticks_to_start(self):
        d = piecewise_constant((0.0, 0.5, 1.0), (0.0, 2.0))
        assert generalized_inverse(d, 0.0, 0.0) == 0.0
        assert generalized_inverse(d, 0.2, 0.0) == 0.2

    def test_infeasible_returns_none(self):
        assert generalized_inverse(uniform(), 0.8, 0.5) is None

    def test_nearly_exhausted_target_is_feasible(self):
        # a target within rounding slack of the leftover mass still resolves
        assert generalized_inverse(uniform(), 0.0, 1.0 + 1e-16) == 1.0

    def test_negative_target(self):
        with pytest.raises(NegativeTarget):
            generalized_inverse(uniform(), 0.0, -0.1)

    def test_out_of_range_start(self):
        with pytest.raises(OutOfRange):
            generalized_inverse(uniform(), 1.5, 0.1)

    def test_linear_piece_inverts_exactly(self):
        d = piecewise_linear((0.0, 1.0), (0.0, 2.0))
        # cumulative is x^2, so the inverse of t is sqrt(t)
        for t in (0.01, 0.25, 0.49, 0.81):
            assert generalized_inverse(d, 0.0, t) == pytest.approx(math.sqrt(t), abs=1e-14)

    def test_flat_linear_piece_at_extreme_height_inverts_exactly(self):
        # v0*v0 is subnormal here, so the square root does not give v0 back
        d = piecewise_linear((0.0, 0.5, 1.0), (1e-160, 1e-160, 1.0))
        t = d.cum_mass[1] / 2
        assert generalized_inverse(d, 0.0, t) == 0.25
        x, short = _Tables([d]).inverse(np.zeros(1, dtype=np.intp), np.zeros(1), np.array([t]))
        assert x.tolist() == [0.25]
        assert not short[0]


class TestPlateauEnd:
    def test_no_plateau(self):
        assert plateau_end(uniform(), 0.3) == 0.3

    def test_extends_through_zero_pieces(self):
        d = piecewise_constant((0.0, 0.25, 0.5, 0.75, 1.0), (2.0, 0.0, 0.0, 2.0))
        assert plateau_end(d, 0.25) == 0.75
        assert plateau_end(d, 0.3) == 0.75
        assert plateau_end(d, 0.1) == 0.1

    def test_linear_needs_both_knots_zero(self):
        d = piecewise_linear((0.0, 0.5, 1.0), (0.0, 0.0, 2.0))
        assert plateau_end(d, 0.0) == 0.5
        assert plateau_end(d, 0.6) == 0.6

    def test_end_of_cake(self):
        assert plateau_end(uniform(), 1.0) == 1.0


class TestProperties:
    @given(densities(), points, points, points)
    def test_additivity(self, d, x, y, z):
        a, b, c = sorted((x, y, z))
        whole = integral_on(d, a, c)
        parts = integral_on(d, a, b) + integral_on(d, b, c)
        assert abs(whole - parts) <= 1e-13

    @given(densities(), points, points, points, points)
    def test_monotonicity(self, d, x, y, z, w):
        a, a2, b2, b = sorted((x, y, z, w))
        assert integral_on(d, a2, b2) <= integral_on(d, a, b) + 1e-15

    @given(densities())
    def test_total_mass_is_one(self, d):
        assert abs(integral_on(d, 0.0, 1.0) - 1.0) <= 1e-12

    @given(densities(min_height=0.05), points, st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_inverse_consistency(self, d, a, frac):
        available = integral_on(d, a, 1.0)
        t = frac * available
        x = generalized_inverse(d, a, t)
        assert x is not None
        assert a <= x <= 1.0
        assert abs(integral_on(d, a, x) - t) <= 1e-12
        # minimality: strictly left of x the mass has not reached t yet
        for step in range(1, 10):
            x_prev = a + (x - a) * step / 10.0
            if x - x_prev > 1e-9:
                assert integral_on(d, a, x_prev) < t

    def test_plateau_ties_resolve_left(self):
        d = piecewise_constant((0.0, 0.25, 0.75, 1.0), (2.0, 0.0, 2.0))
        # every point of [0.25, 0.75] carries mass 0.5; the smallest wins
        assert generalized_inverse(d, 0.0, 0.5) == pytest.approx(0.25, abs=1e-15)


# The per-kind formulas the piece table replaced, kept as the reference.
def per_kind_cumulative_mass(d, x):
    j = d.piece_index(x)
    u = x - d.breakpoints[j]
    if d.kind == PIECEWISE_CONSTANT:
        return d.cum_mass[j] + d.values[j] * u
    width = d.breakpoints[j + 1] - d.breakpoints[j]
    slope = (d.values[j + 1] - d.values[j]) / width
    return d.cum_mass[j] + u * (d.values[j] + 0.5 * slope * u)


def per_kind_generalized_inverse(d, a, t):
    if t == 0.0:
        return a
    total = d.cum_mass[-1]
    start = per_kind_cumulative_mass(d, a)
    if total - start < t - INVERSE_SLACK:
        return None
    target = min(start + t, total)
    j = max(bisect_left(d.cum_mass, target) - 1, 0)
    delta = target - d.cum_mass[j]
    bp = d.breakpoints
    if d.kind == PIECEWISE_CONSTANT:
        u = delta / d.values[j]
    else:
        width = bp[j + 1] - bp[j]
        v0 = d.values[j]
        slope = (d.values[j + 1] - v0) / width
        disc = v0 * v0 + 2.0 * slope * delta
        denom = v0 + math.sqrt(max(disc, 0.0))
        u = width if denom <= 0.0 else 2.0 * delta / denom
    x = min(max(bp[j] + u, bp[j]), bp[j + 1])
    return min(max(x, a), 1.0)


def per_kind_plateau_end(d, x):
    if x >= 1.0:
        return 1.0
    end = x
    for k in range(d.piece_index(x), len(d.breakpoints) - 1):
        if d.kind == PIECEWISE_CONSTANT:
            flat = d.values[k] == 0.0
        else:
            flat = d.values[k] == 0.0 and d.values[k + 1] == 0.0
        if not flat:
            break
        end = d.breakpoints[k + 1]
    return min(end, 1.0)


def per_kind_cdf_on_grid(d, xs):
    bp = np.asarray(d.breakpoints)
    vals = np.asarray(d.values)
    cum = np.asarray(d.cum_mass)
    idx = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, len(bp) - 2)
    u = xs - bp[idx]
    if d.kind == PIECEWISE_CONSTANT:
        return cum[idx] + vals[idx] * u
    slopes = np.diff(vals) / np.diff(bp)
    return cum[idx] + u * (vals[idx] + 0.5 * slopes[idx] * u)


def tied(rng, d):
    """``d`` with some adjacent linear knots made equal: flat pieces."""
    if d.kind != PIECEWISE_LINEAR:
        return d
    values = list(d.values)
    for k in range(len(values) - 1):
        if rng.random() < 0.4:
            values[k + 1] = values[k]
    if max(values) <= 0.0:
        return d
    return validate_and_normalize(d.kind, d.breakpoints, values)


class TestPieceTableMatchesPerKindFormulas:
    """One formula for both kinds gives exactly what each kind's own
    formula gave, plateaus and flat linear pieces included."""

    GRID = np.linspace(0.0, 1.0, 1001)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", KINDS)
    def test_queries_are_bit_identical(self, seed, kind):
        rng = random.Random(seed)
        for _ in range(25):
            d = tied(rng, random_density(rng, 6, kind, zero_share=rng.choice((0.0, 0.5))))
            points = [*d.breakpoints, *(rng.random() for _ in range(10))]
            for x in points:
                assert cumulative_mass(d, x) == per_kind_cumulative_mass(d, x)
                assert plateau_end(d, x) == per_kind_plateau_end(d, x)
            for a in points[::2]:
                for t in (0.0, 0.3 * rng.random(), rng.random(), 1.0 - cumulative_mass(d, a)):
                    t = max(t, 0.0)
                    assert generalized_inverse(d, a, t) == per_kind_generalized_inverse(d, a, t)
            grid = _Tables([d]).cumulative_mass(0, self.GRID)
            assert grid.tolist() == per_kind_cdf_on_grid(d, self.GRID).tolist()
