import itertools
import math
import random

import numpy as np
import pytest

from equicut.errors import (
    InvalidCuts,
    InvalidPermutation,
    InvalidV,
    NotOnSphere,
    OutOfRange,
    ReversedInterval,
    TooManyPlayers,
)
from equicut.lockstep import _residual_norms, _Tables, bisect_orders, finish_orders
from equicut.measure import (
    KINDS,
    piecewise_constant,
    piecewise_linear,
    uniform,
    validate_and_normalize,
)
from equicut.solver import (
    Instance,
    SolveStatus,
    _finish,
    chain_cuts,
    piece_values,
    plateau_refine,
    solve_equitable,
    sweep_permutations,
)
from equicut.topology import cuts_to_sphere, inf_norm, residual_map, validate_cuts
from helpers import random_density, random_instance

UNIFORM = uniform()

# One player values 2x dx, the other is uniform; splitting so both agree
# means x^2 = 1 - x, whose root in [0, 1] is (sqrt(5) - 1) / 2.
GOLDEN_CUT = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_VALUE = 1.0 - GOLDEN_CUT


def golden_instance():
    ramp = piecewise_linear((0.0, 1.0), (0.0, 2.0))
    return Instance((ramp, UNIFORM))


def disjoint_pair():
    left = piecewise_constant((0.0, 0.5, 1.0), (2.0, 0.0))
    right = piecewise_constant((0.0, 0.5, 1.0), (0.0, 2.0))
    return left, right


def test_golden_cut_against_local_scan():
    # independent check of the closed form: brute scan at 1e-6 spacing
    inst = golden_instance()
    best_x, best_gap = None, math.inf
    x = GOLDEN_CUT - 1e-3
    while x <= GOLDEN_CUT + 1e-3:
        gap = abs(x * x - (1.0 - x))
        if gap < best_gap:
            best_x, best_gap = x, gap
        x += 1e-6
    assert best_x == pytest.approx(GOLDEN_CUT, abs=2e-6)


class TestInstance:
    def test_identity_sigma_by_default(self):
        inst = Instance((UNIFORM, UNIFORM, UNIFORM))
        assert inst.sigma == (0, 1, 2)
        assert inst.n == 3

    def test_explicit_sigma(self):
        inst = Instance((UNIFORM, UNIFORM), (1, 0))
        assert inst.piece_owner(0) is inst.densities[1]

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidPermutation):
            Instance((UNIFORM, UNIFORM), (0, 0))
        with pytest.raises(InvalidPermutation):
            Instance((UNIFORM, UNIFORM), (1, 2))

    def test_rejects_empty(self):
        with pytest.raises(InvalidPermutation):
            Instance(())


class TestChainCuts:
    def test_two_uniform_undershoot(self):
        cuts, residual = chain_cuts(Instance((UNIFORM, UNIFORM)), 0.3)
        assert cuts == pytest.approx((0.3,), abs=1e-15)
        assert residual == pytest.approx(0.4, abs=1e-15)

    def test_two_uniform_exact(self):
        cuts, residual = chain_cuts(Instance((UNIFORM, UNIFORM)), 0.5)
        assert cuts == pytest.approx((0.5,), abs=1e-15)
        assert residual == pytest.approx(0.0, abs=1e-15)

    def test_three_uniform_overshoot(self):
        cuts, residual = chain_cuts(Instance((UNIFORM, UNIFORM, UNIFORM)), 0.4)
        assert cuts == pytest.approx((0.4, 0.8), abs=1e-15)
        assert residual == pytest.approx(-0.2, abs=1e-15)

    def test_infeasible_counts_as_overshoot(self):
        d = piecewise_constant((0.0, 0.5, 1.0), (2.0, 0.0))
        cuts, residual = chain_cuts(Instance((d, d, d)), 0.6)
        assert cuts is None
        assert residual == -0.6

    def test_invalid_v(self):
        inst = Instance((UNIFORM, UNIFORM))
        for v in (-0.1, 1.1, float("nan")):
            with pytest.raises(InvalidV):
                chain_cuts(inst, v)

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_nonincreasing_in_v(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, shuffle_sigma=True)
        previous = math.inf
        for k in range(201):
            _, r = chain_cuts(inst, k / 200.0)
            assert r <= previous + 1e-12
            previous = r

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_brackets_sign_change(self, seed):
        rng = random.Random(seed + 1000)
        inst = random_instance(rng, shuffle_sigma=True)
        _, at_zero = chain_cuts(inst, 0.0)
        _, at_one = chain_cuts(inst, 1.0)
        assert at_zero >= 0.0
        assert at_one <= 0.0


class TestSolveEquitable:
    def test_three_uniform_players(self):
        sol = solve_equitable(Instance((UNIFORM,) * 3), tol=1e-13)
        assert sol.status is SolveStatus.CONVERGED
        assert sol.cuts == pytest.approx((1 / 3, 2 / 3), abs=1e-12)
        assert sol.value == pytest.approx(1 / 3, abs=1e-12)
        assert sol.gap <= 1e-13

    def test_golden_ratio_instance(self):
        sol = solve_equitable(golden_instance())
        assert sol.status is SolveStatus.CONVERGED
        assert sol.cuts[0] == pytest.approx(GOLDEN_CUT, abs=1e-9)
        assert sol.value == pytest.approx(GOLDEN_VALUE, abs=1e-9)

    def test_disjoint_supports_identity_order(self):
        left, right = disjoint_pair()
        sol = solve_equitable(Instance((left, right)), tol=1e-13)
        assert sol.cuts[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_single_player_gets_everything(self):
        sol = solve_equitable(Instance((UNIFORM,)))
        assert sol.cuts == ()
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.gap == 0.0
        assert sol.status is SolveStatus.CONVERGED

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_equitable(Instance((UNIFORM, UNIFORM)), tol=0.0)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_instances_converge(self, seed):
        rng = random.Random(seed + 42)
        inst = random_instance(rng, shuffle_sigma=True)
        tol = 1e-9
        sol = solve_equitable(inst, tol=tol)
        assert sol.status in (SolveStatus.CONVERGED, SolveStatus.REFINED_CONVERGED)
        assert all(0.0 <= c <= 1.0 for c in sol.cuts)
        assert all(a <= b for a, b in zip(sol.cuts, sol.cuts[1:]))
        own = piece_values(inst, sol.cuts)
        assert max(own) - min(own) == pytest.approx(sol.gap, abs=1e-15)
        assert all(abs(v - sol.value) <= tol for v in own)

    @pytest.mark.parametrize("seed", range(10))
    def test_certificate_tracks_gap(self, seed):
        rng = random.Random(seed + 7)
        inst = random_instance(rng, shuffle_sigma=True)
        tol = 1e-9
        sol = solve_equitable(inst, tol=tol)
        assert sol.residual_norm <= 2.0 * max(sol.gap, tol)

    @pytest.mark.parametrize("seed", range(10))
    def test_scale_invariance(self, seed):
        rng = random.Random(seed + 99)
        inst = random_instance(rng)
        scaled = []
        for k, d in enumerate(inst.densities):
            factor = 7.0 if k == 0 else 1.0
            raw = [v * d.scale * factor for v in d.values]
            scaled.append(validate_and_normalize(d.kind, d.breakpoints, raw))
        base = solve_equitable(inst, tol=1e-11)
        other = solve_equitable(Instance(tuple(scaled)), tol=1e-11)
        assert other.cuts == pytest.approx(base.cuts, abs=1e-12)
        assert other.value == pytest.approx(base.value, abs=1e-12)


class TestPlateauRefine:
    def test_no_plateau_means_no_motion(self):
        inst = Instance((UNIFORM, UNIFORM))
        assert plateau_refine(inst, (0.5,), 0.5, 1e-9) == pytest.approx((0.5,), abs=1e-10)

    def test_hand_solved_two_player_mix(self):
        # left player holds {2 on [0, 1/2)}, right is uniform; equal values
        # need 2x = 1 - x, so the cut sits at 1/3 and stays put
        left = piecewise_constant((0.0, 0.5, 1.0), (2.0, 0.0))
        inst = Instance((left, UNIFORM))
        refined = plateau_refine(inst, (1 / 3,), 2 / 3, 1e-9)
        assert refined == pytest.approx((1 / 3,), abs=1e-9)

    def test_recenters_cut_between_disjoint_supports(self):
        left, right = disjoint_pair()
        inst = Instance((left, right))
        # any cut in [0.5 - eps, 0.5 + something] splits perfectly at v = 1;
        # the repair pass should keep it centered at the shared plateau
        refined = plateau_refine(inst, (0.7,), 1.0, 1e-9)
        assert abs(refined[0] - 0.5) <= 1e-9

    def test_preserves_cut_ordering(self):
        rng = random.Random(2024)
        for _ in range(20):
            inst = random_instance(rng, shuffle_sigma=True)
            cuts, _ = chain_cuts(inst, rng.uniform(0.1, 0.4))
            if cuts is None:
                continue
            refined = plateau_refine(inst, cuts, 0.25, 1e-6)
            edges = (0.0, *refined, 1.0)
            assert all(a <= b for a, b in zip(edges, edges[1:]))


class TestSweep:
    def test_two_uniform_players_tie(self):
        rows = sweep_permutations((UNIFORM, UNIFORM), 1e-9)
        assert [sigma for sigma, _ in rows] == [(0, 1), (1, 0)]
        for _, sol in rows:
            assert sol.value == pytest.approx(0.5, abs=1e-9)

    def test_disjoint_orders_rank_by_value(self):
        left, right = disjoint_pair()
        rows = sweep_permutations((left, right), 1e-13)
        assert rows[0][0] == (0, 1)
        assert rows[0][1].value == pytest.approx(1.0, abs=1e-12)
        assert rows[1][0] == (1, 0)
        assert rows[1][1].value == pytest.approx(0.0, abs=1e-12)

    def test_covers_every_permutation(self):
        rng = random.Random(5)
        inst = random_instance(rng, n=3)
        rows = sweep_permutations(inst.densities, 1e-9)
        assert len(rows) == 6
        assert len({sigma for sigma, _ in rows}) == 6
        values = [sol.value for _, sol in rows]
        assert values == sorted(values, reverse=True)

    def test_single_player(self):
        rows = sweep_permutations((UNIFORM,), 1e-9)
        assert len(rows) == 1
        assert rows[0][1].value == pytest.approx(1.0, abs=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(TooManyPlayers):
            sweep_permutations((UNIFORM,) * 9, 1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_bad_tol_raises(self, tol):
        with pytest.raises(ValueError):
            sweep_permutations((UNIFORM, UNIFORM), tol)

    def test_cap_checked_before_tol(self):
        with pytest.raises(TooManyPlayers):
            sweep_permutations((UNIFORM,) * 9, 0.0)


def per_order_sweep(densities, tol, max_iter=200):
    """The reference: one scalar solve per order, ranked like the sweep."""
    rows = [
        (sigma, solve_equitable(Instance(densities, sigma), tol, max_iter))
        for sigma in itertools.permutations(range(len(densities)))
    ]
    rows.sort(key=lambda row: (-row[1].value, row[0]))
    return rows


class TestSweepMatchesPerOrderSolves:
    """The lockstep kernel must reproduce the scalar bisection exactly,
    so every field of every solution compares equal."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_dense(self, n, kind):
        rng = random.Random(31 * n + len(kind))
        densities = tuple(random_density(rng, 6, kind, low=0.1) for _ in range(n))
        assert sweep_permutations(densities, 1e-9) == per_order_sweep(densities, 1e-9)

    def test_sparse_plateaus_reach_every_status(self):
        rng = random.Random(2012)
        statuses = set()
        for case in range(12):
            n = 2 + case % 3
            densities = tuple(random_density(rng, 6, zero_share=2 / 3) for _ in range(n))
            rows = per_order_sweep(densities, 1e-9)
            assert sweep_permutations(densities, 1e-9) == rows
            statuses.update(sol.status for _, sol in rows)
        # the repair pass and the descent fallback both ran on kernel output
        assert statuses == set(SolveStatus)

    def test_disjoint_pair_exits(self):
        # (0, 1) stops on the tolerance test, (1, 0) runs into max_iter
        densities = disjoint_pair()
        assert sweep_permutations(densities, 1e-13) == per_order_sweep(densities, 1e-13)

    def test_bracket_collapse_exit(self):
        # order (0, 1) jumps from residual +1/4 to -1/4 at v = 1/2, so the
        # bracket shrinks to adjacent floats and stops on lo < mid < hi
        gapped = piecewise_constant((0.0, 0.25, 0.75, 1.0), (1.0, 0.0, 1.0))
        densities = (gapped, UNIFORM)
        rows = sweep_permutations(densities, 1e-9)
        assert rows == per_order_sweep(densities, 1e-9)
        assert rows[0][1].status is SolveStatus.REFINED_CONVERGED

    @pytest.mark.parametrize("seed", range(4))
    def test_iteration_cap(self, seed):
        rng = random.Random(seed)
        densities = random_instance(rng, n=4, max_pieces=6).densities
        rows = sweep_permutations(densities, 1e-9, max_iter=5)
        assert rows == per_order_sweep(densities, 1e-9, max_iter=5)
        assert all(sol.iterations == 5 for _, sol in rows)


def both_tails(densities, orders, cuts, lo, iterations, tol=1e-9, max_iter=200):
    """The batched tail and a per-lane scalar ``_finish`` on the same input."""
    tables = _Tables(densities)
    sigma = np.array(orders, dtype=np.intp)
    batched = finish_orders(tables, sigma, cuts, lo, iterations, tol, max_iter)
    scalar = [
        _finish(Instance(densities, order), tuple(c), lo_, it, tol, max_iter)
        for order, c, lo_, it in zip(orders, cuts.tolist(), lo.tolist(), iterations.tolist())
    ]
    return batched, scalar


def kernel_output(densities, orders, tol=1e-9, max_iter=200):
    return bisect_orders(_Tables(densities), np.array(orders, dtype=np.intp), tol, max_iter)


def thirds():
    """Three players, each holding all their mass on one third of the cake."""
    return tuple(
        piecewise_constant((0.0, 1 / 3, 2 / 3, 1.0), [3.0 if j == k else 0.0 for j in range(3)])
        for k in range(3)
    )


class TestBatchedTailMatchesScalar:
    """lockstep.finish_orders must equal solver._finish lane by lane on the
    same kernel output, so every field of every solution compares equal."""

    def test_dense_seven_players(self):
        rng = random.Random(7)
        densities = tuple(random_density(rng, 6, KINDS[k % 2], low=0.1) for k in range(7))
        orders = list(itertools.permutations(range(7)))
        batched, scalar = both_tails(densities, orders, *kernel_output(densities, orders))
        assert len(batched) == 5040
        assert batched == scalar

    def test_sparse_mixes_converged_and_fallback_lanes(self):
        rng = random.Random(2013)
        statuses = set()
        for n in (3, 4, 4):
            densities = tuple(random_density(rng, 6, zero_share=2 / 3) for _ in range(n))
            orders = list(itertools.permutations(range(n)))
            batched, scalar = both_tails(densities, orders, *kernel_output(densities, orders))
            assert batched == scalar
            statuses.update(sol.status for sol in batched)
        assert statuses == set(SolveStatus)

    def test_repeated_cuts(self):
        # under order (2, 1, 0) the cuts (1/2, 1/2) give every piece value 0,
        # so the lane converges with a zero-width middle piece and a zero
        # sphere coordinate; the other rows mix such pieces with fallback
        densities = thirds()
        orders = list(itertools.permutations(range(3)))
        rows = [(0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (1 / 3, 1 / 3), (0.0, 1.0), (0.2, 0.2)]
        lanes = [(order, row) for order in orders for row in rows]
        cuts = np.array([row for _, row in lanes])
        batched, scalar = both_tails(
            densities,
            [order for order, _ in lanes],
            cuts,
            np.zeros(len(lanes)),
            np.zeros(len(lanes), dtype=np.intp),
        )
        assert batched == scalar
        zero_width = [
            sol.status is SolveStatus.CONVERGED and len(set(row)) < len(row)
            for (_, row), sol in zip(lanes, batched)
        ]
        assert any(zero_width)
        # and the kernel's own output for the same densities
        batched, scalar = both_tails(densities, orders, *kernel_output(densities, orders))
        assert batched == scalar


    def test_gap_just_over_tol_falls_back(self):
        # two uniform players: the cut 1/2 + d leaves a gap of about 2|d|,
        # so these rows straddle tol = 1e-9 by fractions of it
        offsets = [k * 0.25e-9 for k in range(-6, 7)]
        cuts = np.array([[0.5 + d] for d in offsets])
        batched, scalar = both_tails(
            (UNIFORM, UNIFORM), [(0, 1)] * len(offsets), cuts, np.full(len(offsets), 0.5),
            np.zeros(len(offsets), dtype=np.intp),
        )
        assert batched == scalar
        assert {sol.status for sol in batched} == {
            SolveStatus.CONVERGED, SolveStatus.REFINED_CONVERGED
        }


class TestBatchedTailKeepsChecks:
    """Bad input raises the error the scalar path raises, with its message."""

    @pytest.mark.parametrize(
        "cuts, error",
        [((0.2, 1.5), OutOfRange), ((0.6, 0.4), ReversedInterval), ((0.3, 0.3, -0.1), OutOfRange)],
    )
    def test_bad_cuts(self, cuts, error):
        densities = (UNIFORM,) * (len(cuts) + 1)
        order = tuple(range(len(densities)))
        with pytest.raises(error) as scalar:
            _finish(Instance(densities, order), cuts, 0.0, 0, 1e-9, 200)
        good = tuple(k / len(densities) for k in range(1, len(densities)))
        with pytest.raises(error) as batched:
            both_tails(
                densities, [order, order], np.array([good, cuts]), np.zeros(2),
                np.zeros(2, dtype=np.intp),
            )
        assert str(batched.value) == str(scalar.value)

    def test_certificate_refuses_unsorted_cuts(self):
        edges = (0.0, 0.6, 0.4, 1.0)
        with pytest.raises(InvalidCuts) as scalar:
            validate_cuts(edges[1:-1])
        with pytest.raises(InvalidCuts) as batched:
            _residual_norms(_Tables((UNIFORM,) * 3), np.array([[0, 1, 2]]), np.array([edges]))
        assert str(batched.value) == str(scalar.value)

    def test_certificate_refuses_points_off_the_sphere(self):
        # edges that stop short of 1 give a point of squared norm 1/2
        edges = (0.0, 0.25, 0.5)
        e = tuple(math.sqrt(b - a) for a, b in zip(edges, edges[1:]))
        inst = Instance((UNIFORM, UNIFORM))
        with pytest.raises(NotOnSphere) as scalar:
            residual_map(inst, e)
        with pytest.raises(NotOnSphere) as batched:
            _residual_norms(_Tables(inst.densities), np.array([inst.sigma]), np.array([edges]))
        assert str(batched.value) == str(scalar.value)


class TestCertificateAcrossStatuses:
    def test_residual_norm_recomputable(self):
        inst = golden_instance()
        sol = solve_equitable(inst)
        recomputed = inf_norm(residual_map(inst, cuts_to_sphere(sol.cuts)))
        assert recomputed == pytest.approx(sol.residual_norm, abs=1e-15)
