import random

import numpy as np
import pytest

from equicut.analysis import FairnessReport, fairness_report, valuation_matrix, valuation_rows
from equicut.errors import DimensionMismatch, EquicutError, InvalidCuts, NonFiniteEntry
from equicut.measure import piecewise_constant, uniform
from equicut.solver import Instance, solve_equitable
from helpers import random_density, random_instance

UNIFORM = uniform()


class TestValuationMatrix:
    def test_uniform_quarter_cut(self):
        m = valuation_matrix((UNIFORM, UNIFORM), (0.25,))
        assert m == pytest.approx(np.array([[0.25, 0.75], [0.25, 0.75]]), abs=1e-15)

    def test_rows_are_player_indexed_columns_piece_indexed(self):
        left = piecewise_constant((0.0, 0.5, 1.0), (2.0, 0.0))
        m = valuation_matrix((left, UNIFORM), (0.5,))
        assert m[0] == pytest.approx([1.0, 0.0], abs=1e-15)
        assert m[1] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_cut_count_checked(self):
        with pytest.raises(DimensionMismatch):
            valuation_matrix((UNIFORM, UNIFORM), (0.2, 0.4))

    def test_cut_ordering_checked(self):
        with pytest.raises(InvalidCuts):
            valuation_matrix((UNIFORM, UNIFORM, UNIFORM), (0.6, 0.4))

    def test_sigma_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            valuation_matrix((UNIFORM, UNIFORM), (0.5,), sigma=(0, 0))

    @pytest.mark.parametrize("seed", range(15))
    def test_rows_sum_to_one(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng)
        cuts = sorted(rng.random() for _ in range(inst.n - 1))
        m = valuation_matrix(inst.densities, cuts)
        assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-10


class TestFairnessReport:
    def test_even_split_of_identical_players(self):
        m = valuation_matrix((UNIFORM, UNIFORM), (0.5,))
        rep = fairness_report(m, (0, 1))
        assert rep.equitable_gap == pytest.approx(0.0, abs=1e-15)
        assert rep.proportional_ok and rep.envy_free_ok
        assert rep.proportional_margin == pytest.approx(0.0, abs=1e-15)
        assert rep.worst_envy == pytest.approx(0.0, abs=1e-15)
        assert rep.exact_gap == pytest.approx(0.0, abs=1e-15)

    def test_lopsided_split_fails_proportionality(self):
        m = valuation_matrix((UNIFORM, UNIFORM), (0.25,))
        rep = fairness_report(m, (0, 1))
        assert rep.equitable_gap == pytest.approx(0.5, abs=1e-15)
        assert not rep.proportional_ok
        assert rep.proportional_margin == pytest.approx(-0.25, abs=1e-15)
        assert not rep.envy_free_ok
        assert rep.worst_envy == pytest.approx(0.5, abs=1e-15)
        assert rep.assigned_values == pytest.approx((0.25, 0.75), abs=1e-15)

    def test_sigma_reassigns_ownership(self):
        m = valuation_matrix((UNIFORM, UNIFORM), (0.25,))
        rep = fairness_report(m, (1, 0))
        # player 0 now owns the right piece
        assert rep.assigned_values == pytest.approx((0.75, 0.25), abs=1e-15)

    def test_equitable_but_not_proportional(self):
        left = piecewise_constant((0.0, 0.5, 1.0), (2.0, 0.0))
        right = piecewise_constant((0.0, 0.5, 1.0), (0.0, 2.0))
        # swapped assignment gives both players value 0: equitable, nothing else
        m = valuation_matrix((left, right), (0.5,))
        rep = fairness_report(m, (1, 0))
        assert rep.equitable_gap == pytest.approx(0.0, abs=1e-15)
        assert not rep.proportional_ok
        assert not rep.envy_free_ok

    def test_matrix_must_be_square(self):
        with pytest.raises(DimensionMismatch):
            fairness_report(np.zeros((2, 3)), (0, 1))

    def test_sigma_must_be_permutation(self):
        with pytest.raises(DimensionMismatch):
            fairness_report(np.eye(2), (0, 2))

    def test_flags_respect_tolerance(self):
        m = np.array([[0.5 - 1e-12, 0.5 + 1e-12], [0.5, 0.5]])
        rep = fairness_report(m, (0, 1), tol=1e-9)
        assert rep.proportional_ok
        assert rep.envy_free_ok

    @pytest.mark.parametrize("seed", range(10))
    def test_converged_solutions_report_tiny_gaps(self, seed):
        rng = random.Random(seed + 500)
        inst = random_instance(rng, shuffle_sigma=True)
        tol = 1e-9
        sol = solve_equitable(inst, tol=tol)
        rep = fairness_report(
            valuation_matrix(inst.densities, sol.cuts, inst.sigma), inst.sigma, tol
        )
        assert rep.equitable_gap == pytest.approx(sol.gap, abs=1e-15)
        if sol.status.value != "best_effort":
            assert rep.equitable_gap <= tol


def numpy_fairness_report(matrix, sigma, tol=1e-9):
    """The numpy formulation of fairness_report, kept as the reference the
    pure-Python one must match field for field."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    inverse = np.empty(n, dtype=int)
    inverse[list(sigma)] = np.arange(n)
    own = m[np.arange(n), inverse]
    fair_share = 1.0 / n
    proportional_margin = float(own.min() - fair_share)
    worst_envy = float((m - own[:, None]).max())
    return FairnessReport(
        equitable_gap=float(own.max() - own.min()),
        proportional_ok=proportional_margin >= -tol,
        proportional_margin=proportional_margin,
        envy_free_ok=worst_envy <= tol,
        worst_envy=worst_envy,
        exact_gap=float(np.abs(m - fair_share).max()),
        assigned_values=tuple(float(v) for v in own),
    )


def differential_cases(seed, count=30):
    """Instances with plateaus and shuffled sigma, each with cuts that
    repeat (zero-width pieces, cuts at 0 and 1 included), random cuts, and
    the solver's own cuts."""
    rng = random.Random(seed + 900)
    for _ in range(count):
        n = rng.randint(1, 6)
        densities = tuple(random_density(rng, zero_share=0.3) for _ in range(n))
        sigma = list(range(n))
        rng.shuffle(sigma)
        inst = Instance(densities, tuple(sigma))
        pool = [0.0, 1.0, *(round(rng.random(), 2) for _ in range(2))]
        yield inst, sorted(rng.choice(pool) for _ in range(n - 1))
        yield inst, sorted(rng.random() for _ in range(n - 1))
        yield inst, solve_equitable(inst).cuts


class TestPureReportMatchesNumpy:
    @pytest.mark.parametrize("seed", range(20))
    def test_fields_equal_reference(self, seed):
        for inst, cuts in differential_cases(seed):
            rows = valuation_rows(inst.densities, cuts, inst.sigma)
            for tol in (1e-9, 0.0, 0.1):
                assert fairness_report(rows, inst.sigma, tol) == numpy_fairness_report(
                    rows, inst.sigma, tol
                )

    @pytest.mark.parametrize("seed", range(5))
    def test_nested_tuples_and_ndarray_give_equal_reports(self, seed):
        for inst, cuts in differential_cases(seed, count=10):
            rows = valuation_rows(inst.densities, cuts, inst.sigma)
            matrix = valuation_matrix(inst.densities, cuts, inst.sigma)
            assert fairness_report(matrix, inst.sigma) == fairness_report(rows, inst.sigma)
            assert fairness_report([list(r) for r in rows], inst.sigma) == fairness_report(
                rows, inst.sigma
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_is_ndarray_of_rows(self, seed):
        for inst, cuts in differential_cases(seed, count=10):
            rows = valuation_rows(inst.densities, cuts, inst.sigma)
            m = valuation_matrix(inst.densities, cuts, inst.sigma)
            assert isinstance(m, np.ndarray)
            assert m.dtype == np.float64 and m.shape == (inst.n, inst.n)
            assert np.array_equal(m, np.array(rows))

    def test_rows_are_tuples_of_floats(self):
        rows = valuation_rows((UNIFORM, UNIFORM), (0.25,))
        assert rows == ((0.25, 0.75), (0.25, 0.75))
        assert all(type(x) is float for row in rows for x in row)

    def test_report_fields_are_python_scalars(self):
        rep = fairness_report(np.array([[0.25, 0.75], [0.25, 0.75]]), (0, 1))
        assert type(rep.equitable_gap) is float and type(rep.worst_envy) is float
        assert type(rep.proportional_ok) is bool
        assert all(type(v) is float for v in rep.assigned_values)


class TestReportInputChecks:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_refused(self, bad):
        for matrix in ([[0.5, 0.5], [0.5, bad]], np.array([[bad, 0.5], [0.5, 0.5]])):
            with pytest.raises(NonFiniteEntry):
                fairness_report(matrix, (0, 1))
        assert issubclass(NonFiniteEntry, EquicutError)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.5, 0.5], [0.5]],
            [0.5, 0.5],
            [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
            [],
            [[[0.5], [0.5]], [[0.5], [0.5]]],
            np.zeros(4),
            np.zeros((2, 2, 1)),
            np.zeros((0, 0)),
            0.5,
        ],
        ids=["ragged", "1-D", "2x3", "empty", "3-D", "1-D array", "3-D array", "0x0 array",
             "scalar"],
    )
    def test_non_square_refused(self, matrix):
        with pytest.raises(DimensionMismatch):
            fairness_report(matrix, (0, 1))
