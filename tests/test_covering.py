"""Greedy and randomized quasi-tiling covers and their exact verifiers."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberent.covering as covering_mod
import fiberent.groups as groups_mod
from fiberent.groups import GroupMismatchError, HeisenbergGroup, ZdGroup, subset_from_coords
from fiberent.rng import derive_seed, uniform01_stream
from fiberent.covering import (
    CoverInstance,
    CoverSolution,
    HypothesisError,
    RandomCoverInstance,
    RandomCoverReport,
    check_hypotheses,
    greedy_cover,
    iter_samples,
    sample_many,
    sample_random_cover,
    verify_greedy_cover,
    verify_random_cover,
)

from test_acceptance import random_suite

Z1 = ZdGroup(1)
Z2 = ZdGroup(2)
H = HeisenbergGroup()


def grid2(xs, ys):
    return [(x, y) for x in xs for y in ys]


def handmade_solution(inst, multiplicity, total_size=0, picks=()) -> CoverSolution:
    """A CoverSolution over inst's points with the given point -> count map."""
    counts = np.zeros(len(inst.points), covering_mod._COUNT)
    for coords, m in multiplicity.items():
        counts[inst.points.index(coords)] = m
    return CoverSolution(picks, total_size, inst.points, counts.tobytes())


def tiling_instance():
    # five disjoint [0,2) blocks tile [0,10) exactly
    return CoverInstance.create(
        Z1.box(10),
        [Z1.box(2)],
        [subset_from_coords(Z1, [(k,) for k in (0, 2, 4, 6, 8)])],
        delta=Fraction(1, 10),
        epsilon=Fraction(1, 2),
    )


def two_scale_z1_instance():
    # [0,6) tiles fill [0,36); every [0,3) candidate is then fully covered
    return CoverInstance.create(
        Z1.box(36),
        [Z1.box(3), Z1.box(6)],
        [
            subset_from_coords(Z1, [(3 * k,) for k in range(12)]),
            subset_from_coords(Z1, [(6 * k,) for k in range(6)]),
        ],
        delta=Fraction(1, 5),
        epsilon=Fraction(1, 2),
    )


def overlap_chain_instance(delta=Fraction(1, 4)):
    # [0,5) blocks at step 4: each accepted block overlaps its predecessor in one point
    return CoverInstance.create(
        Z1.box(50),
        [Z1.box(5)],
        [subset_from_coords(Z1, [(4 * k,) for k in range(12)])],
        delta=delta,
        epsilon=Fraction(1, 2),
    )


def two_scale_z2_instance():
    return CoverInstance.create(
        Z2.box(12, 12),
        [Z2.box(2, 2), Z2.box(4, 4)],
        [
            subset_from_coords(Z2, grid2(range(0, 12, 2), range(0, 12, 2))),
            subset_from_coords(Z2, grid2((0, 4, 8), (0, 4, 8))),
        ],
        delta=Fraction(1, 10),
        epsilon=Fraction(3, 5),
    )


HEISENBERG_CENTERS = [(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 4, 8)]


def heisenberg_instance():
    return CoverInstance.create(
        H.box(4, 4, 16),
        [H.box(2, 2, 4)],
        [subset_from_coords(H, HEISENBERG_CENTERS)],
        delta=Fraction(1, 10),
        epsilon=Fraction(1, 2),
    )


def chain_fail_instance():
    # step 9 with width 10: every block overlaps the last in one point, so the
    # union loses 11 points against the total and (1+delta) cannot close the gap
    return CoverInstance.create(
        Z1.box(110),
        [Z1.box(10)],
        [subset_from_coords(Z1, [(9 * k,) for k in range(12)])],
        delta=Fraction(1, 10),
        epsilon=Fraction(1, 2),
    )


class TestInstanceValidation:
    def test_shape_center_count_mismatch(self):
        with pytest.raises(ValueError):
            CoverInstance.create(
                Z1.box(4), [Z1.box(2), Z1.box(3)], [subset_from_coords(Z1, [(0,)])],
                delta=Fraction(1, 10), epsilon=Fraction(1, 2),
            )
        with pytest.raises(ValueError):
            CoverInstance.create(Z1.box(4), [], [], delta=0.1, epsilon=0.5)

    def test_parameters_must_be_unit_fractions(self):
        for bad in (0, 1, Fraction(3, 2), -0.1):
            with pytest.raises(ValueError):
                CoverInstance.create(
                    Z1.box(4), [Z1.box(2)], [subset_from_coords(Z1, [(0,)])],
                    delta=bad, epsilon=Fraction(1, 2),
                )

    def test_random_instance_ragged_rows(self):
        with pytest.raises(ValueError):
            RandomCoverInstance.create(
                Z1.box(4),
                [[Z1.box(2), Z1.box(2)]],
                [[subset_from_coords(Z1, [(0,)])]],
                K=Z1.box(2), C=Fraction(4),
                alpha=Fraction(1, 2), delta=Fraction(1, 4), epsilon=Fraction(1, 2),
            )

    def test_random_instance_needs_a_shape_family(self):
        with pytest.raises(ValueError, match="one center family per shape family"):
            RandomCoverInstance.create(
                Z1.box(4), [], [], K=Z1.box(2), C=Fraction(4),
                alpha=Fraction(1, 2), delta=Fraction(1, 4), epsilon=Fraction(1, 2),
            )

    def test_unsupported_instance_type(self):
        with pytest.raises(TypeError):
            check_hypotheses("not an instance")


class TestHypotheses:
    def test_two_scale_growth_rows_exact(self):
        rows = {r.name: r for r in check_hypotheses(two_scale_z1_instance()).rows}
        growth = rows["growth-1"]
        # S_1^{-1} S_2 = [-2, 6) has 8 points against (1 + 1/2) * 6
        assert growth.lhs == 8
        assert growth.rhs == 9
        assert growth.ok

    def test_z2_growth_row_exact(self):
        rows = {r.name: r for r in check_hypotheses(two_scale_z2_instance()).rows}
        growth = rows["growth-1"]
        assert growth.lhs == 25
        assert growth.rhs == Fraction(128, 5)
        assert growth.ok

    def test_containment_failure_detected(self):
        inst = CoverInstance.create(
            Z1.box(10), [Z1.box(3)], [subset_from_coords(Z1, [(8,)])],
            delta=Fraction(1, 10), epsilon=Fraction(1, 2),
        )
        report = check_hypotheses(inst)
        assert not report.ok
        assert report.failures == ("shape-containment-1",)
        with pytest.raises(HypothesisError):
            greedy_cover(inst)

    def test_growth_failure_blocks_sampler(self):
        # a large shape before a small one violates the across-row growth bound:
        # |[0,8)^{-1} [0,2)| = 9 > (1 + 1/2) * 2
        inst = RandomCoverInstance.create(
            Z1.box(60),
            [[Z1.box(8)], [Z1.box(2)]],
            [
                [subset_from_coords(Z1, [(8 * k,) for k in range(7)])],
                [subset_from_coords(Z1, [(2 * k,) for k in range(28)])],
            ],
            K=Z1.box(4), C=Fraction(6),
            alpha=Fraction(1, 10), delta=Fraction(1, 4), epsilon=Fraction(1, 2),
        )
        report = check_hypotheses(inst)
        assert report.failures == ("growth-across-1-1",)
        with pytest.raises(HypothesisError):
            sample_random_cover(inst, 1)


class TestGreedyCover:
    def test_tiling_exact(self):
        inst = tiling_instance()
        sol = greedy_cover(inst)
        assert len(sol.picks) == 5
        assert sol.total_size == 10
        assert sol.union_size == 10
        assert set(sol.multiplicity.values()) == {1}
        report = verify_greedy_cover(inst, sol)
        assert report.disjointness_lhs == Fraction(11)
        assert report.disjointness_rhs == Fraction(10)
        assert report.coverage_lhs == 10
        assert report.coverage_rhs == Fraction(4)
        assert report.ok

    def test_two_scale_rejects_covered_smalls(self):
        inst = two_scale_z1_instance()
        sol = greedy_cover(inst)
        # big tiles claim everything; the small layer contributes nothing
        assert all(pick[0] == 2 for pick in sol.picks)
        assert len(sol.picks) == 6
        assert sol.total_size == 36
        assert sol.union_size == 36
        assert verify_greedy_cover(inst, sol).ok

    def test_overlap_chain_statistics(self):
        inst = overlap_chain_instance()
        sol = greedy_cover(inst)
        assert len(sol.picks) == 12
        assert sol.total_size == 60
        assert sol.union_size == 49
        assert max(sol.multiplicity.values()) == 2
        report = verify_greedy_cover(inst, sol)
        assert report.disjointness_lhs == Fraction(245, 4)
        assert report.disjointness_rhs == Fraction(60)
        assert report.ok

    def test_z2_two_scale(self):
        inst = two_scale_z2_instance()
        sol = greedy_cover(inst)
        assert len(sol.picks) == 9
        assert sol.total_size == 144
        assert sol.union_size == 144
        assert verify_greedy_cover(inst, sol).ok

    def test_heisenberg_blocks_are_disjoint(self):
        # right translates separate in the first two coordinates and the
        # center spacing absorbs the twist in the third
        inst = heisenberg_instance()
        sol = greedy_cover(inst)
        assert len(sol.picks) == 12
        assert sol.total_size == 192
        assert sol.union_size == 192
        assert set(sol.multiplicity.values()) == {1}
        assert verify_greedy_cover(inst, sol).ok

    def test_construction_bound_on_all_instances(self):
        for inst in (
            tiling_instance(),
            two_scale_z1_instance(),
            overlap_chain_instance(),
            two_scale_z2_instance(),
            heisenberg_instance(),
            chain_fail_instance(),
        ):
            sol = greedy_cover(inst)
            assert (1 - inst.delta) * sol.total_size <= sol.union_size

    def test_deterministic(self):
        assert greedy_cover(overlap_chain_instance()) == greedy_cover(overlap_chain_instance())

    def test_acceptance_threshold_boundary(self):
        # second block {1, 2} overlaps one point: accepted iff 1 <= 2 delta
        ambient = Z1.box(3)
        shapes = [Z1.box(2)]
        centers = [subset_from_coords(Z1, [(0,), (1,)])]
        at_half = greedy_cover(
            CoverInstance.create(ambient, shapes, centers, Fraction(1, 2), Fraction(1, 2))
        )
        assert at_half.picks == ((1, (0,)), (1, (1,)))
        below = greedy_cover(
            CoverInstance.create(ambient, shapes, centers, Fraction(2, 5), Fraction(1, 2))
        )
        assert below.picks == ((1, (0,)),)

    def test_empty_center_set_gives_empty_solution(self):
        inst = CoverInstance.create(
            Z1.box(10), [Z1.box(2)], [subset_from_coords(Z1, [])],
            delta=Fraction(1, 10), epsilon=Fraction(1, 2),
        )
        sol = greedy_cover(inst)
        assert sol.picks == ()
        assert sol.total_size == 0
        report = verify_greedy_cover(inst, sol)
        assert report.coverage_rhs == Fraction(-1)
        assert report.ok

    @settings(max_examples=60, deadline=None)
    @given(
        centers=st.sets(st.integers(0, 11), min_size=1),
        delta_num=st.integers(1, 9),
    )
    def test_construction_bound_property(self, centers, delta_num):
        inst = CoverInstance.create(
            Z1.box(50),
            [Z1.box(5)],
            [subset_from_coords(Z1, [(4 * k,) for k in sorted(centers)])],
            delta=Fraction(delta_num, 10),
            epsilon=Fraction(1, 2),
        )
        sol = greedy_cover(inst)
        assert (1 - inst.delta) * sol.total_size <= sol.union_size
        assert sol == greedy_cover(inst)


class TestGreedyConclusionFailure:
    def test_chain_instance_fails_lemma_form_honestly(self):
        # hypotheses hold and the construction bound holds, yet the stated
        # (1+delta) disjointness inequality fails: 119.9 < 120
        inst = chain_fail_instance()
        assert check_hypotheses(inst).ok
        sol = greedy_cover(inst)
        assert sol.total_size == 120
        assert sol.union_size == 109
        report = verify_greedy_cover(inst, sol)
        assert report.disjointness_lhs == Fraction(1199, 10)
        assert report.disjointness_rhs == Fraction(120)
        assert not report.disjointness_ok
        assert report.coverage_ok
        assert not report.ok

    def test_handmade_empty_solution_fails_coverage(self):
        inst = tiling_instance()
        fake = handmade_solution(inst, {})
        report = verify_greedy_cover(inst, fake)
        assert not report.coverage_ok
        assert not report.ok


class TestDeltaMonotonicity:
    def test_monotone_on_single_scale_chain(self):
        totals = [
            greedy_cover(overlap_chain_instance(delta)).total_size
            for delta in (
                Fraction(1, 20), Fraction(1, 5), Fraction(1, 4),
                Fraction(2, 5), Fraction(3, 5),
            )
        ]
        assert totals == sorted(totals)
        assert totals[0] == 30 and totals[-1] == 60

    def test_not_monotone_in_general(self):
        # a larger delta lets a second big block in, which then starves a
        # whole field of small blocks that the stricter run had accepted
        ambient = subset_from_coords(Z2, grid2(range(0, 20), range(-2, 8)))
        shapes = [
            subset_from_coords(Z2, [(0, 0), (0, 1)]),
            subset_from_coords(Z2, grid2(range(0, 8), range(0, 4))),
        ]
        centers = [
            subset_from_coords(Z2, grid2(range(8, 14), (-1, 1, 3))),
            subset_from_coords(Z2, [(0, 0), (6, 0)]),
        ]
        strict = greedy_cover(
            CoverInstance.create(ambient, shapes, centers, Fraction(1, 5), Fraction(1, 2))
        )
        loose = greedy_cover(
            CoverInstance.create(ambient, shapes, centers, Fraction(3, 10), Fraction(1, 2))
        )
        assert strict.total_size == 68
        assert loose.total_size == 64
        assert loose.total_size < strict.total_size


def deterministic_random_instance():
    # alpha is met by the big row alone, so q hits 1 there and 0 afterwards
    return RandomCoverInstance.create(
        Z1.box(60),
        [[Z1.box(2)], [Z1.box(4)]],
        [
            [subset_from_coords(Z1, [(2 * k,) for k in range(28)])],
            [subset_from_coords(Z1, [(4 * k,) for k in range(14)])],
        ],
        K=Z1.box(4), C=Fraction(6),
        alpha=Fraction(1, 2), delta=Fraction(1, 4), epsilon=Fraction(1, 2),
    )


def multiplicity_chain_instance(alpha=Fraction(2, 25), delta=Fraction(1, 4), spread=2):
    # [0,4) blocks at step 3: interior points on 3Z sit under two candidates
    return RandomCoverInstance.create(
        Z1.box(60),
        [[Z1.box(4)]],
        [[subset_from_coords(Z1, [(3 * k,) for k in range(18)])]],
        K=Z1.box(spread), C=Fraction(6),
        alpha=alpha, delta=delta, epsilon=Fraction(1, 2),
    )


def coverage_two_row_instance():
    return RandomCoverInstance.create(
        Z1.box(90),
        [[Z1.box(3)], [Z1.box(6)]],
        [
            [subset_from_coords(Z1, [(57 + 3 * k,) for k in range(11)])],
            [subset_from_coords(Z1, [(12 * k,) for k in range(5)])],
        ],
        K=Z1.box(12), C=Fraction(6),
        alpha=Fraction(9, 20), delta=Fraction(1, 5), epsilon=Fraction(1, 2),
    )


def z2_random_instance():
    return RandomCoverInstance.create(
        Z2.box(12, 12),
        [[Z2.box(3, 3)]],
        [[subset_from_coords(Z2, grid2((0, 3, 6, 9), (0, 3, 6, 9)))]],
        K=Z2.box(3, 3), C=Fraction(6),
        alpha=Fraction(1, 2), delta=Fraction(3, 25), epsilon=Fraction(1, 2),
    )


def heisenberg_random_instance():
    return RandomCoverInstance.create(
        H.box(4, 4, 16),
        [[H.box(2, 2, 4)]],
        [[subset_from_coords(H, HEISENBERG_CENTERS)]],
        K=H.box(2, 2, 2), C=Fraction(4),
        alpha=Fraction(3, 10), delta=Fraction(3, 20), epsilon=Fraction(1, 2),
    )


def replay_multiplicity(inst, sol):
    lam = {}
    for i, j, ac in sol.picks:
        shape = inst.shapes[i - 1][j - 1]
        for f in shape.sorted_elements():
            c = inst.ambient.group.mul_coords(f.coords, ac)
            lam[c] = lam.get(c, 0) + 1
    return lam


class TestRandomCover:
    def test_degenerate_instance_is_seed_independent(self):
        inst = deterministic_random_instance()
        assert check_hypotheses(inst).ok
        a = sample_random_cover(inst, 1)
        b = sample_random_cover(inst, 999)
        assert a == b
        # big layer keeps everything at q = 1; small layer is skipped at q = 0
        assert all(pick[:2] == (2, 1) for pick in a.picks)
        assert len(a.picks) == 14
        assert a.total_size == 56

    def test_degenerate_instance_matches_greedy(self):
        rand_sol = sample_random_cover(deterministic_random_instance(), 5)
        greedy_sol = greedy_cover(
            CoverInstance.create(
                Z1.box(60),
                [Z1.box(2), Z1.box(4)],
                [
                    subset_from_coords(Z1, [(2 * k,) for k in range(28)]),
                    subset_from_coords(Z1, [(4 * k,) for k in range(14)]),
                ],
                delta=Fraction(1, 4), epsilon=Fraction(1, 2),
            )
        )
        assert rand_sol.multiplicity == greedy_sol.multiplicity
        assert rand_sol.total_size == greedy_sol.total_size
        assert [(i, a) for i, j, a in rand_sol.picks] == list(greedy_sol.picks)

    def test_seed_purity(self):
        inst = multiplicity_chain_instance()
        assert sample_random_cover(inst, 5) == sample_random_cover(inst, 5)
        assert sample_random_cover(inst, 5) != sample_random_cover(inst, 6)

    def test_multiplicity_matches_replay(self):
        inst = multiplicity_chain_instance()
        for seed in range(5):
            sol = sample_random_cover(inst, seed)
            lam = replay_multiplicity(inst, sol)
            assert sol.multiplicity == lam
            assert sol.union_size == len(lam)
            assert sol.total_size == sum(lam.values())

    def test_overlapping_chain_verifies_within_band(self):
        # q = 0.3, so a point under two candidates has E(mult | covered)
        # = 2 / (2 - q) which stays under 1 + delta
        inst = multiplicity_chain_instance()
        report = verify_random_cover(inst, sample_many(inst, 400, 11))
        assert report.samples == 400
        assert report.multiplicity_bound == 1.25
        assert report.max_conditional_multiplicity < 1.25 + 3 * report.max_conditional_se
        assert 1.0 <= report.max_conditional_multiplicity < 1.3
        assert report.coverage_bound < 0
        assert report.ok

    def test_two_row_coverage(self):
        inst = coverage_two_row_instance()
        assert check_hypotheses(inst).ok
        sols = sample_many(inst, 400, 13)
        # the big row runs at q = 1 and always lands all five disjoint tiles
        assert all(sum(1 for p in s.picks if p[0] == 2) == 5 for s in sols)
        report = verify_random_cover(inst, sols)
        assert report.max_conditional_multiplicity == 1.0
        assert report.coverage_bound == pytest.approx(22.5)
        assert report.mean_total_size > 45
        assert report.ok

    def test_z2_instance(self):
        inst = z2_random_instance()
        report = verify_random_cover(inst, sample_many(inst, 300, 17))
        assert report.max_conditional_multiplicity == 1.0
        band = 5 * report.total_size_se
        assert abs(report.mean_total_size - 138.24) <= band
        assert report.ok

    def test_heisenberg_instance(self):
        inst = heisenberg_random_instance()
        assert check_hypotheses(inst).ok
        report = verify_random_cover(inst, sample_many(inst, 300, 19))
        assert report.max_conditional_multiplicity == 1.0
        band = 5 * report.total_size_se
        assert abs(report.mean_total_size - 138.24) <= band
        assert report.ok

    def test_verifier_ties_report_smallest_se_in_any_order(self):
        # a and b both average 1.5; a's multiplicities spread less
        a, b = (0,), (1,)
        inst = multiplicity_chain_instance()
        for first in (a, b):
            sols = []
            for s in range(100):
                mult = {a: 1 + s % 2, b: 3 if s % 4 == 0 else 1}
                ordered = {first: mult[first], **mult}
                sols.append(handmade_solution(inst, ordered))
            report = verify_random_cover(inst, sols)
            assert report == dict_tally_report(inst, sols)
            assert report.max_conditional_multiplicity == 1.5
            assert report.max_conditional_se == pytest.approx((25 / 99 / 100) ** 0.5)

    def test_verifier_needs_samples(self):
        inst = multiplicity_chain_instance()
        with pytest.raises(ValueError):
            verify_random_cover(inst, sample_many(inst, 99, 1))
        with pytest.raises(ValueError):
            verify_random_cover(inst, iter_samples(inst, 99, 1))

    def test_verifier_rejects_points_outside_the_ambient_set(self):
        # a solution counts the points of its own instance's F, here one more
        inst = multiplicity_chain_instance()
        wider = CoverSolution((), 1, inst.points + ((60,),), np.eye(1, 61, 60, np.int32).tobytes())
        assert wider.multiplicity == {(60,): 1}
        with pytest.raises(ValueError, match="other than the ambient set"):
            verify_random_cover(inst, [wider] * 100)
        # equal points held by another tuple are the same F
        points = tuple(list(inst.points))
        assert points is not inst.points
        same = CoverSolution((), 0, points, bytes(4 * len(points)))
        assert verify_random_cover(inst, [same] * 100).samples == 100


class TestRandomConclusionFailures:
    def test_forced_q1_breaks_multiplicity_bound(self):
        # alpha large enough pins q at 1, the sampler degenerates to the
        # greedy pass, and interior points on 3Z are always double covered
        inst = multiplicity_chain_instance(alpha=Fraction(4, 5), spread=9)
        assert check_hypotheses(inst).ok
        sols = sample_many(inst, 100, 23)
        assert len({s.total_size for s in sols}) == 1
        report = verify_random_cover(inst, sols)
        assert report.max_conditional_multiplicity == 2.0
        assert not report.multiplicity_ok
        assert report.coverage_ok
        assert not report.ok

    def test_tiny_delta_misses_coverage(self):
        inst = multiplicity_chain_instance(
            alpha=Fraction(1, 2), delta=Fraction(1, 100), spread=9
        )
        assert check_hypotheses(inst).ok
        report = verify_random_cover(inst, sample_many(inst, 400, 29))
        assert report.coverage_bound == pytest.approx(29.4)
        assert report.mean_total_size < 10
        assert not report.coverage_ok
        assert not report.ok


def dict_tally_report(inst, solutions) -> RandomCoverReport:
    """The scalar twin of verify_random_cover: three dicts keyed by point,
    one point at a time, and the worst mean found by a scan."""
    count, acc, acc_sq = {}, {}, {}
    totals = []
    for sol in solutions:
        totals.append(float(sol.total_size))
        for coords, m in sol.multiplicity.items():
            count[coords] = count.get(coords, 0) + 1
            acc[coords] = acc.get(coords, 0) + m
            acc_sq[coords] = acc_sq.get(coords, 0) + m * m
    worst_mean, worst_se = 0.0, 0.0
    for coords, k in count.items():
        mean = acc[coords] / k
        if mean >= worst_mean:
            var = (acc_sq[coords] - k * mean * mean) / (k - 1) if k > 1 else 0.0
            se = math.sqrt(max(var, 0.0) / k)
            if mean > worst_mean or se < worst_se:
                worst_mean, worst_se = mean, se
    k = len(totals)
    mean_total = math.fsum(totals) / k
    total_se = math.sqrt(math.fsum((v - mean_total) ** 2 for v in totals) / (k - 1) / k)
    return RandomCoverReport(
        samples=k,
        max_conditional_multiplicity=worst_mean,
        max_conditional_se=worst_se,
        multiplicity_bound=float(1 + inst.delta),
        mean_total_size=mean_total,
        total_size_se=total_se,
        coverage_bound=float((inst.alpha - inst.delta) * len(inst.ambient)),
    )


def fraction_q_sample(inst, seed) -> CoverSolution:
    """The Fraction twin of sample_random_cover: q and floor(delta |S|) are
    Fractions, blocks are built from the shapes and centers as coordinates,
    lam is a dict keyed by point, and each retained center is thinned as
    soon as it is drawn."""
    goal = inst.alpha * len(inst.ambient)
    lam, picks, total = {}, [], 0
    keys = [(i, j) for i, row in enumerate(inst.shapes, 1) for j in range(1, len(row) + 1)]
    for i, j in reversed(keys):
        shape, centers = inst.shapes[i - 1][j - 1], inst.centers[i - 1][j - 1]
        q = inst.delta * (goal - len(lam)) / len(shape)
        if q <= 0:
            break
        keep = uniform01_stream(seed, "keep", i, j)
        limit = math.floor(inst.delta * len(shape))
        for a in sorted(centers.coords):
            if q < 1 and not keep(a) < float(q):
                continue
            block = [inst.ambient.group.mul_coords(f, a) for f in shape.coords]
            if sum(c in lam for c in block) <= limit:
                picks.append((i, j, a))
                total += len(shape)
                for c in block:
                    lam[c] = lam.get(c, 0) + 1
    return handmade_solution(inst, lam, total, tuple(picks))


def exact_zero_q_instance():
    # six disjoint [0,5) tiles cover alpha |F| = 30 points exactly at q = 3/2,
    # so the next layer opens at q = 0
    return RandomCoverInstance.create(
        Z1.box(60),
        [[Z1.box(2)], [Z1.box(5)]],
        [
            [subset_from_coords(Z1, [(2 * k,) for k in range(28)])],
            [subset_from_coords(Z1, [(5 * k,) for k in range(6)])],
        ],
        K=Z1.box(5), C=Fraction(6),
        alpha=Fraction(1, 2), delta=Fraction(1, 4), epsilon=Fraction(1, 2),
    )


BIG = 10 ** 40
THRESHOLD_INSTANCES = {
    # q = delta alpha |F| / |S| = 1 exactly at the only layer
    "q-exactly-1": lambda: multiplicity_chain_instance(alpha=Fraction(4, 15)),
    # q < 0 at the second layer
    "q-negative": deterministic_random_instance,
    "q-exactly-0": exact_zero_q_instance,
    # q close to 0.3 with numerators of 80 digits
    "40-digit": lambda: multiplicity_chain_instance(
        alpha=Fraction(2 * BIG + 3, 25 * BIG), delta=Fraction(BIG // 4 + 1, BIG)),
    "heisenberg": heisenberg_random_instance,
    "z2": z2_random_instance,
}


class TestTallyAndThresholdTwins:
    """verify_random_cover's positional bincount tally and sample_random_cover's
    integer keep threshold against their scalar Fraction and dict twins."""

    @pytest.fixture(scope="class")
    def instances(self):
        forced_q1 = multiplicity_chain_instance(alpha=Fraction(4, 5), spread=9)
        return [*random_suite(), ("forced-q1", forced_q1),
                ("heisenberg", heisenberg_random_instance())]

    def test_every_report_field_equals_the_dict_tally(self, instances, monkeypatch):
        for name, inst in instances:
            for seed in (101, 7):
                sols = sample_many(inst, 150, seed)
                want = dict_tally_report(inst, sols)
                assert verify_random_cover(inst, sols) == want, name
                assert verify_random_cover(inst, iter(sols)) == want, name
        # a tally flushed every row, or every few rows, adds up to the same report
        for counts in (7, 200):
            monkeypatch.setattr(covering_mod, "_TALLY_CHUNK", counts)
            for name, inst in instances:
                sols = sample_many(inst, 120, 3)
                assert verify_random_cover(inst, sols) == dict_tally_report(inst, sols), name

    def test_streamed_samples_give_the_listed_report(self):
        inst = coverage_two_row_instance()
        streamed = iter_samples(inst, 150, 13)
        assert not isinstance(streamed, list)
        assert verify_random_cover(inst, streamed) == verify_random_cover(
            inst, sample_many(inst, 150, 13))

    @pytest.mark.parametrize("name", sorted(THRESHOLD_INSTANCES))
    def test_samples_equal_the_fraction_threshold_twin(self, name):
        inst = THRESHOLD_INSTANCES[name]()
        assert check_hypotheses(inst).ok
        for seed in range(40):
            assert sample_random_cover(inst, seed) == fraction_q_sample(inst, seed), (name, seed)

    def test_threshold_instances_reach_their_edge_cases(self):
        def first_q(inst):
            _, size, _, _ = inst.layers[-1]
            return inst.delta * inst.alpha * len(inst.ambient) / size

        assert first_q(THRESHOLD_INSTANCES["q-exactly-1"]()) == 1
        inst = exact_zero_q_instance()
        sol = sample_random_cover(inst, 0)
        assert sol.union_size == inst.alpha * len(inst.ambient)
        assert {p[:2] for p in sol.picks} == {(2, 1)}
        big = THRESHOLD_INSTANCES["40-digit"]()
        assert len(str((big.delta * big.alpha).numerator)) >= 80
        assert 0 < first_q(big) < 1

    @pytest.mark.parametrize("num, den", [
        (1, 1), (7, 7), (BIG, BIG), (0, 3), (-1, 3), (-BIG, 7), (2, 3), (1, 3),
        (BIG - 1, BIG), (3 * BIG + 1, 10 * BIG - 7), (2**53 + 1, 2**54), (4 * BIG, 3 * BIG),
    ])
    def test_integer_threshold_is_float_of_the_fraction(self, num, den):
        q = Fraction(num, den)
        assert num / den == float(q)
        assert (num <= 0) == (q <= 0)
        assert (num < den) == (q < 1)

    @settings(max_examples=300)
    @given(num=st.integers(-(10 ** 45), 10 ** 45), den=st.integers(1, 10 ** 45))
    def test_integer_threshold_matches_fraction_everywhere(self, num, den):
        q = Fraction(num, den)
        assert num / den == float(q)
        assert (num <= 0) == (q <= 0)
        assert (num < den) == (q < 1)


def growth_failing_random_instance():
    # |[0,8)^{-1} [0,2)| = 9 > (1 + 1/2) * 2 fails the across-row growth bound
    return RandomCoverInstance.create(
        Z1.box(60),
        [[Z1.box(8)], [Z1.box(2)]],
        [
            [subset_from_coords(Z1, [(8 * k,) for k in range(7)])],
            [subset_from_coords(Z1, [(2 * k,) for k in range(28)])],
        ],
        K=Z1.box(4), C=Fraction(6),
        alpha=Fraction(1, 10), delta=Fraction(1, 4), epsilon=Fraction(1, 2),
    )


@pytest.fixture
def counted_checks(monkeypatch):
    calls = []
    original = covering_mod.check_hypotheses

    def counting(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(covering_mod, "check_hypotheses", counting)
    return calls


class TestHypothesesOncePerInstance:
    def test_sample_many_checks_hypotheses_once(self, counted_checks):
        inst = multiplicity_chain_instance()
        sols = sample_many(inst, 200, 7)
        assert len(sols) == 200
        assert len(counted_checks) == 1
        sample_random_cover(inst, 8)
        assert len(counted_checks) == 1

    def test_greedy_cover_checks_hypotheses_once(self, counted_checks):
        inst = two_scale_z1_instance()
        assert greedy_cover(inst) == greedy_cover(inst)
        assert len(counted_checks) == 1

    def test_cached_verdict_equals_fresh_check(self):
        for inst in (two_scale_z2_instance(), heisenberg_random_instance(),
                     growth_failing_random_instance()):
            assert inst.hypotheses == check_hypotheses(inst)

    def test_sample_many_is_per_sample_cover(self):
        inst = coverage_two_row_instance()
        seed = 13
        expected = [
            sample_random_cover(inst, derive_seed(seed, "cover", k)) for k in range(50)
        ]
        assert sample_many(inst, 50, seed) == expected

    def test_one_check_per_thinning_pass(self, monkeypatch):
        # a full chunk and a one-sample chunk are two _thin passes, so two checks
        inst = multiplicity_chain_instance()
        width = _width(inst)
        assert width >= covering_mod._KERNEL_ROWS
        calls, require = [], covering_mod._require_hypotheses
        monkeypatch.setattr(covering_mod, "_require_hypotheses",
                            lambda inst: calls.append(inst) or require(inst))
        assert len(sample_many(inst, width + 1, 7)) == width + 1
        assert calls == [inst, inst]

    def test_failing_instances_still_raise(self, monkeypatch):
        # before any keep draw
        monkeypatch.setattr(covering_mod, "uniform01_table", lambda *a: pytest.fail("drawn"))
        no_centers = RandomCoverInstance.create(
            Z1.box(20), [[Z1.box(2)]], [[subset_from_coords(Z1, [])]], K=Z1.box(4), C=Fraction(6),
            alpha=Fraction(1, 10), delta=Fraction(1, 4), epsilon=Fraction(1, 2))
        for inst in (growth_failing_random_instance(), no_centers):
            for _ in range(2):  # the cached failing verdict raises again
                with pytest.raises(HypothesisError):
                    sample_random_cover(inst, 1)
                with pytest.raises(HypothesisError):
                    sample_many(inst, 100, 1)
        escaping = CoverInstance.create(
            Z1.box(10), [Z1.box(3)], [subset_from_coords(Z1, [(8,)])],
            delta=Fraction(1, 10), epsilon=Fraction(1, 2),
        )
        for _ in range(2):
            with pytest.raises(HypothesisError):
                greedy_cover(escaping)


GREEDY_INSTANCES = (tiling_instance, two_scale_z1_instance, overlap_chain_instance,
                    two_scale_z2_instance, heisenberg_instance, chain_fail_instance)
RANDOM_INSTANCES = (deterministic_random_instance, multiplicity_chain_instance,
                    coverage_two_row_instance, z2_random_instance, heisenberg_random_instance)

# sha256 of (picks, total_size, multiplicity) over greedy_cover of every
# greedy instance above and sample_many(inst, 200, 101) of every passing
# random instance, recorded when the keep draws moved to generator version 2
# (rng: 2); the greedy covers draw nothing.
COVER_DIGEST = "739e6d372698ab9878a67cdd2faaae6609bccdbdc1446470e066abbb22853cea"


def test_cover_outputs_match_recorded_digest():
    h = hashlib.sha256()
    sols = [greedy_cover(build()) for build in GREEDY_INSTANCES]
    for build in RANDOM_INSTANCES:
        sols.extend(sample_many(build(), 200, 101))
    for sol in sols:
        multiplicity = tuple(sorted(sol.multiplicity.items()))
        h.update(repr((sol.picks, sol.total_size, multiplicity)).encode())
    assert h.hexdigest() == COVER_DIGEST


def _most_centers(inst) -> int:
    return max(len(A) for row in inst.centers for A in row)


def _width(inst) -> int:
    """iter_samples' chunk width, at the module's current constants."""
    return max(1, min(covering_mod._BLOCK // _most_centers(inst),
                      covering_mod._TALLY_CHUNK // len(inst.points)))


def two_open_layers_instance():
    # q = 15/16 at layer (2, 1), whose three blocks cover at most 24 of the
    # alpha |F| = 30 points, so layer (1, 1) opens with 0 < q < 1 too
    return RandomCoverInstance.create(
        Z1.box(60),
        [[Z1.box(2)], [Z1.box(8)]],
        [
            [subset_from_coords(Z1, [(2 * k,) for k in range(28)])],
            [subset_from_coords(Z1, [(16 * k,) for k in range(3)])],
        ],
        K=Z1.box(16), C=Fraction(6),
        alpha=Fraction(1, 2), delta=Fraction(1, 4), epsilon=Fraction(1, 2),
    )


class TestKeepTables:
    """iter_samples thins a chunk of samples at once (the chunk kernel), with
    one keep table per layer; each sample equals sample_random_cover's one-row
    scalar loop drawing its own stream's row of keeps."""

    BUILDS = [*RANDOM_INSTANCES, *(THRESHOLD_INSTANCES[k] for k in sorted(THRESHOLD_INSTANCES)),
              two_open_layers_instance]

    @staticmethod
    def per_sample(inst, samples, seed):
        return [sample_random_cover(inst, derive_seed(seed, "cover", k)) for k in range(samples)]

    def check(self, inst, samples, seed, monkeypatch) -> tuple:
        """Compare iter_samples, thinning every chunk of two or more rows by
        the kernel, with the one-row list loop sample by sample; return the
        seeds of each _thin pass and (seeds, prefix, tails) of each keep
        table it drew."""
        expected = self.per_sample(inst, samples, seed)
        chunks, drawn = [], []
        thin, table = covering_mod._thin, covering_mod.uniform01_table

        def thinning(inst, seeds):
            chunks.append(list(seeds))
            return thin(inst, seeds)

        def recording(seeds, prefix, tails):
            drawn.append((tuple(seeds), prefix, tails))
            return table(seeds, prefix, tails)

        monkeypatch.setattr(covering_mod, "_KERNEL_ROWS", 1)
        monkeypatch.setattr(covering_mod, "_thin", thinning)
        monkeypatch.setattr(covering_mod, "uniform01_table", recording)
        for k, (got, want) in enumerate(zip(iter_samples(inst, samples, seed), expected,
                                            strict=True)):
            assert got == want, k
        assert [s for chunk in chunks for s in chunk] == [
            derive_seed(seed, "cover", k) for k in range(samples)]
        width = _width(inst)
        assert all(len(chunk) <= width for chunk in chunks)
        # a chunk of two or more rows holds at most _TALLY_CHUNK counts
        assert all(len(chunk) * len(inst.points) <= covering_mod._TALLY_CHUNK
                   for chunk in chunks if len(chunk) > 1)
        centers = {key: centers for key, _, centers, _ in inst.layers}
        chunk_of = {s: k for k, chunk in enumerate(chunks) for s in chunk}
        for seeds, (tag, i, j), tails in drawn:
            assert tag == "keep" and tails is centers[i, j]
            assert len(seeds) * len(tails) <= covering_mod._BLOCK
            assert len({chunk_of[s] for s in seeds}) == 1
        # at most one table per chunk and layer
        assert len({(chunk_of[seeds[0]], prefix) for seeds, prefix, _ in drawn}) == len(drawn)
        return chunks, drawn

    @pytest.mark.parametrize("build", BUILDS)
    def test_a_full_chunk_then_a_short_one(self, build, monkeypatch):
        inst = build()
        width = _width(inst)
        chunks, _ = self.check(inst, width + 7, 29, monkeypatch)
        assert [len(chunk) for chunk in chunks] == [width, 7]

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("width", [1, 3])  # one-sample chunks, then chunks of three
    def test_small_chunks(self, build, width, monkeypatch):
        inst = build()
        monkeypatch.setattr(covering_mod, "_BLOCK", width * _most_centers(inst) + 1)
        chunks, _ = self.check(inst, 8, 5, monkeypatch)
        assert [len(chunk) for chunk in chunks] == [width] * (8 // width) + [8 % width] * (width > 1)

    def test_the_instances_draw_their_tables(self, monkeypatch):
        # the q = 1 and q <= 0 edge cases draw none; one instance opens two layers
        layers = {}
        for build in self.BUILDS:
            _, drawn = self.check(build(), 10, 1, monkeypatch)
            layers[build] = [prefix for _, prefix, _ in drawn]
            monkeypatch.undo()
        assert {build for build, drawn in layers.items() if not drawn} == {
            THRESHOLD_INSTANCES[k] for k in ("q-exactly-1", "q-negative", "q-exactly-0")}
        assert layers[two_open_layers_instance] == [("keep", 2, 1), ("keep", 1, 1)]

    @pytest.mark.parametrize("build", [multiplicity_chain_instance, two_open_layers_instance])
    def test_chunks_below_the_kernel_rows_take_the_scalar_loop(self, build, monkeypatch):
        inst = build()
        rows = covering_mod._KERNEL_ROWS
        expected = self.per_sample(inst, rows, 9)
        seeds = [derive_seed(9, "cover", k) for k in range(rows)]
        thinned, thin = [], covering_mod._thin
        monkeypatch.setattr(covering_mod, "_thin",
                            lambda inst, seeds: thinned.append(seeds) or thin(inst, seeds))
        # a chunk of rows - 1 samples is cut into one-row passes, one of rows is one pass
        for width, passes in ((rows - 1, [[s] for s in seeds[:-1]]), (rows, [seeds])):
            monkeypatch.setattr(covering_mod, "_BLOCK", width * _most_centers(inst) + 1)
            assert _width(inst) == width
            thinned.clear()
            assert list(iter_samples(inst, width, 9)) == expected[:width]
            assert thinned == passes

    def test_samples_still_come_one_at_a_time(self):
        # a chunk's seeds are derived as it starts, so a huge count costs nothing
        inst = coverage_two_row_instance()
        first = list(itertools.islice(iter_samples(inst, 10**12, 3), 3))
        assert first == self.per_sample(inst, 3, 3)

    def test_samples_are_drawn_through_sample_random_cover(self, monkeypatch):
        # once per sample, so a wrapper around it sees every sample
        seen, sample = [], covering_mod.sample_random_cover
        monkeypatch.setattr(covering_mod, "sample_random_cover",
                            lambda inst, seed, keeps: seen.append(seed) or sample(inst, seed, keeps))
        inst = multiplicity_chain_instance()
        sols = sample_many(inst, 20, 4)
        assert seen == [derive_seed(4, "cover", k) for k in range(20)]
        assert sols == self.per_sample(inst, 20, 4)


@pytest.fixture
def counted_products(monkeypatch):
    calls = []
    for cls in (ZdGroup, HeisenbergGroup):
        def counting(self, a, b, original=cls.mul_coords):
            calls.append(a)
            return original(self, a, b)

        monkeypatch.setattr(cls, "mul_coords", counting)
    return calls


class TestBlocksBuiltOnce:
    @pytest.mark.parametrize("build", [multiplicity_chain_instance, coverage_two_row_instance,
                                       z2_random_instance, heisenberg_random_instance])
    def test_samples_reuse_the_instance_blocks(self, counted_products, build):
        inst = build()
        sample_many(inst, 50, 3)
        sample_random_cover(inst, 4)
        assert len(counted_products) == sum(
            len(S) * len(A) for srow, crow in zip(inst.shapes, inst.centers)
            for S, A in zip(srow, crow))

    def test_greedy_reuses_the_instance_blocks(self, counted_products):
        inst = two_scale_z2_instance()
        assert greedy_cover(inst) == greedy_cover(inst)
        assert len(counted_products) == sum(
            len(S) * len(A) for S, A in zip(inst.shapes, inst.centers))

    def test_layers_scan_keys_sizes_and_sorted_centers(self):
        inst = coverage_two_row_instance()
        assert inst.points == tuple(sorted(inst.ambient.coords))
        assert [(key, size) for key, size, _, _ in inst.layers] == [((1, 1), 3), ((2, 1), 6)]
        for (i, j), size, centers, blocks in inst.layers:
            shape = inst.shapes[i - 1][j - 1]
            assert list(centers) == sorted(inst.centers[i - 1][j - 1].coords)
            assert blocks.shape == (len(centers), size)
            for a, block in zip(centers, blocks.tolist()):
                assert frozenset(inst.points[p] for p in block) == frozenset(
                    Z1.mul_coords(f, a) for f in shape.coords)

    def test_points_outside_the_ambient_set_are_minus_one(self):
        # the escaping block [8, 11) has two points past F = [0, 10)
        inst = CoverInstance.create(
            Z1.box(10), [Z1.box(3)], [subset_from_coords(Z1, [(0,), (8,)])],
            delta=Fraction(1, 10), epsilon=Fraction(1, 2))
        (_, _, _, blocks), = inst.layers
        assert [sorted(block) for block in blocks.tolist()] == [[0, 1, 2], [-1, 8, 9]]
        assert check_hypotheses(inst).failures == ("shape-containment-1",)

    def test_random_containment_rows_name_their_layer(self):
        inst = RandomCoverInstance.create(
            Z1.box(20),
            [[Z1.box(2), Z1.box(3)]],
            [[subset_from_coords(Z1, [(0,)]), subset_from_coords(Z1, [(18,)])]],
            K=Z1.box(20), C=Fraction(6),
            alpha=Fraction(1, 10), delta=Fraction(1, 4), epsilon=Fraction(1, 2),
        )
        report = check_hypotheses(inst)
        assert [r.name for r in report.rows[:2]] == ["shape-1-containment-1",
                                                     "shape-1-containment-2"]
        assert report.failures == ("shape-1-containment-2",)

    def test_foreign_group_still_raises_from_check_hypotheses(self):
        z2_shape = CoverInstance.create(
            Z1.box(10), [Z2.box(2, 2)], [subset_from_coords(Z1, [(0,)])],
            delta=Fraction(1, 10), epsilon=Fraction(1, 2),
        )
        z2_centers = CoverInstance.create(
            Z1.box(10), [Z1.box(2)], [subset_from_coords(Z2, [(0, 0)])],
            delta=Fraction(1, 10), epsilon=Fraction(1, 2),
        )
        z2_random = RandomCoverInstance.create(
            Z1.box(10), [[Z2.box(2, 2)]], [[subset_from_coords(Z1, [(0,)])]],
            K=Z1.box(2), C=Fraction(6),
            alpha=Fraction(1, 10), delta=Fraction(1, 4), epsilon=Fraction(1, 2),
        )
        for inst in (z2_shape, z2_centers, z2_random):
            for _ in range(2):
                with pytest.raises(GroupMismatchError):
                    check_hypotheses(inst)
        with pytest.raises(GroupMismatchError):
            greedy_cover(z2_shape)
        with pytest.raises(GroupMismatchError):
            sample_random_cover(z2_random, 1)


def reference_growth_rows(inst) -> list:
    """Every growth row by the rule as the lemmas state it: each row unions
    every earlier shape, inverts that union and enumerates its product with
    the target pair by pair."""
    group = inst.ambient.group
    mc, inv = group.mul_coords, group.inverse_coords

    def row(name, earlier, target, factor, strict):
        union = set().union(*(S.coords for S in earlier))
        lhs = Fraction(len({mc(inv(s), t) for s in union for t in target.coords}))
        rhs = factor * len(target)
        return covering_mod.CheckRow(name, lhs, rhs, lhs < rhs if strict else lhs <= rhs)

    if isinstance(inst, CoverInstance):
        return [row(f"growth-{i}", inst.shapes[:i], inst.shapes[i], 1 + inst.epsilon, True)
                for i in range(1, len(inst.shapes))]
    flat = [(i, j, S) for i, srow in enumerate(inst.shapes) for j, S in enumerate(srow)]
    within = [row(f"growth-within-{i + 1}-{k}", [S for a, b, S in flat if (a, b) < (i, k)],
                  srow[k], inst.C, False)
              for i, srow in enumerate(inst.shapes) for k in range(1, len(srow))]
    across = [row(f"growth-across-{i}-{k + 1}", [S for a, _, S in flat if a < i],
                  target, 1 + inst.epsilon, False)
              for i in range(1, len(inst.shapes)) for k, target in enumerate(inst.shapes[i])]
    return within + across


ORACLE_GROUPS = {"zd:1": (Z1, (7,)), "zd:2": (Z2, (3, 3)), "heisenberg": (H, (2, 2, 4))}


def oracle_shape(rng, group, extents, earlier):
    """A random non-empty shape: the identity alone (so the next row
    passes), a subset of an earlier shape (so it may add no point to the
    union), or a subset of a box around the origin."""
    draw = rng.random()
    if draw < 0.2:
        return subset_from_coords(group, [group.identity().coords])
    if earlier and draw < 0.45:
        pool = sorted(rng.choice(earlier).coords)
    else:
        pool = [tuple(c - e // 2 for c, e in zip(p, extents))
                for p in sorted(group.box(*extents).coords)]
    return subset_from_coords(group, rng.sample(pool, rng.randint(1, len(pool))))


def oracle_instance(kind, group_tag, seed):
    """A seeded instance of `kind` on that group: random shapes in any size
    order, ragged random rows, and one-point center sets."""
    rng = random.Random(f"{kind}-{group_tag}-{seed}")
    group, extents = ORACLE_GROUPS[group_tag]
    ambient = group.box(*(3 * e for e in extents))
    center = subset_from_coords(group, [group.identity().coords])
    epsilon = Fraction(rng.randint(1, 9), 10)
    shapes = []
    rows = [rng.randint(1, 4) for _ in range(rng.randint(1, 3) if kind == "random" else 1)]
    for length in rows:
        shapes.append([])
        for _ in range(length):
            shapes[-1].append(oracle_shape(rng, group, extents, sum(shapes, [])))
    if kind == "greedy":
        return CoverInstance.create(ambient, shapes[0], [center] * len(shapes[0]),
                                    Fraction(1, 4), epsilon)
    return RandomCoverInstance.create(
        ambient, shapes, [[center] * len(row) for row in shapes], group.box(*extents),
        rng.choice([1, 2, 6]), Fraction(1, 2), Fraction(1, 4), epsilon)


class TestGrowthRowOracle:
    """Every growth row of check_hypotheses equals the union-every-earlier-
    shape reference, over seeded greedy and random instances on each group."""

    @pytest.mark.parametrize("group_tag", sorted(ORACLE_GROUPS))
    @pytest.mark.parametrize("kind", ["greedy", "random"])
    def test_growth_rows_match_the_reference(self, kind, group_tag):
        seen = {"pass": 0, "fail": 0, "shrinking": 0, "ragged": 0, "no new point": 0}
        for seed in range(12):
            inst = oracle_instance(kind, group_tag, seed)
            want = reference_growth_rows(inst)
            rows = check_hypotheses(inst).rows
            layers = len(inst.layers)
            assert rows[layers:layers + len(want)] == tuple(want)
            assert all(r.name.startswith("alpha-coverage-") for r in rows[layers + len(want):])
            seen["pass"] += sum(r.ok for r in want)
            seen["fail"] += sum(not r.ok for r in want)
            flat = inst.shapes if kind == "greedy" else sum(inst.shapes, ())
            seen["shrinking"] += any(len(a) > len(b) for a, b in zip(flat, flat[1:]))
            seen["no new point"] += any(S.coords <= set().union(*(T.coords for T in flat[:t]))
                                        for t, S in enumerate(flat) if t)
            seen["ragged"] += kind == "random" and len(set(map(len, inst.shapes))) > 1
        assert seen["pass"] and seen["fail"] and seen["shrinking"] and seen["no new point"]
        assert seen["ragged"] or kind == "greedy"

    def test_the_reference_agrees_on_the_suite_instances(self):
        for build in GREEDY_INSTANCES + RANDOM_INSTANCES + (growth_failing_random_instance,):
            inst = build()
            growth = [r for r in check_hypotheses(inst).rows if r.name.startswith("growth")]
            assert growth == reference_growth_rows(inst)


class TestUnionWork:
    """check_hypotheses joins each inverted shape into one running union."""

    def test_unions_take_each_shape_once(self, monkeypatch):
        # two rows of N shapes of distinct sizes, so every shape adds points
        n = 12
        shapes = [[Z1.box(s) for s in range(1, n + 1)],
                  [Z1.box(s) for s in range(n + 1, 2 * n + 1)]]
        centers = [[subset_from_coords(Z1, [(0,)])] * n] * 2
        inst = RandomCoverInstance.create(
            Z1.box(4 * n), shapes, centers, K=Z1.box(4), C=Fraction(6),
            alpha=Fraction(1, 10), delta=Fraction(1, 4), epsilon=Fraction(1, 2))
        joined, inverted = [], []
        union_of, inverse_set = groups_mod.union_of, groups_mod.inverse_set

        def counted_union(sets):
            sets = list(sets)
            joined.append(len(sets))
            return union_of(sets)

        def counted_inverse(S):
            inverted.append(S)
            return inverse_set(S)

        for module in (groups_mod, covering_mod):
            monkeypatch.setattr(module, "union_of", counted_union)
            monkeypatch.setattr(module, "inverse_set", counted_inverse)
        rows = check_hypotheses(inst).rows
        assert len(rows) == 2 * n + 2 * (n - 1) + n + 2
        assert sum(joined) <= 2 * (2 * n) + 2 * n
        assert len(inverted) <= 2 * n
