"""Group algebra: laws, finite subsets, product sets, both route checks."""

import dataclasses
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberent.groups as groups_mod
from fiberent.groups import (
    FiniteSubset,
    GroupMismatchError,
    HeisenbergGroup,
    ZdGroup,
    inverse,
    inverse_set,
    mul,
    product_set,
    product_set_size,
    random_element,
    subset,
    subset_from_coords,
    symmetric_difference_size,
    translate,
    union_of,
)

Z1 = ZdGroup(1)
Z2 = ZdGroup(2)
Z3 = ZdGroup(3)
H = HeisenbergGroup()
GROUPS = [Z1, Z2, Z3, H]


def coords_strategy(group, bound=50):
    dims = group.d if isinstance(group, ZdGroup) else 3
    coord = st.integers(min_value=-bound, max_value=bound)
    return st.tuples(*([coord] * dims))


@st.composite
def group_elements(draw, count):
    group = draw(st.sampled_from(GROUPS))
    return group, [group.element(*draw(coords_strategy(group))) for _ in range(count)]


@st.composite
def group_subsets(draw, max_size=10):
    group = draw(st.sampled_from(GROUPS))
    cs = coords_strategy(group, bound=8)
    E = draw(st.frozensets(cs, min_size=1, max_size=max_size))
    F = draw(st.frozensets(cs, min_size=1, max_size=max_size))
    return subset_from_coords(group, E), subset_from_coords(group, F)


@settings(max_examples=1000)
@given(group_elements(3))
def test_associativity(ge):
    _, (g, h, k) = ge
    assert ((g * h) * k).coords == (g * (h * k)).coords


@settings(max_examples=300)
@given(group_elements(2))
def test_identity_and_inverse_laws(ge):
    group, (g, h) = ge
    e = group.identity()
    assert (g * g.inverse()).coords == e.coords
    assert (g.inverse() * g).coords == e.coords
    assert (g * e).coords == g.coords
    assert (e * g).coords == g.coords
    assert mul(g, h).inverse().coords == mul(h.inverse(), g.inverse()).coords
    assert inverse(inverse(g)).coords == g.coords


def test_identity_coords_are_zero():
    for group in GROUPS:
        assert group.identity().coords == (0,) * group.rank


@settings(max_examples=60)
@given(d=st.integers(1, 5), data=st.data())
def test_unrolled_zd_multiply_equals_elementwise_add(d, data):
    big = st.integers(-2 ** 70, 2 ** 70)
    a = data.draw(st.tuples(*[big] * d), label="a")
    b = data.draw(st.tuples(*[big] * d), label="b")
    got = ZdGroup(d).mul_coords(a, b)
    assert type(got) is tuple
    assert got == tuple(map(operator.add, a, b))


def test_unrolled_zd_multiply_beyond_int64():
    for d in range(1, 6):
        a = tuple(2 ** 63 + i for i in range(d))
        b = tuple(-(2 ** 64) * i - 1 for i in range(d))
        assert ZdGroup(d).mul_coords(a, b) == tuple(x + y for x, y in zip(a, b))


@settings(max_examples=60)
@given(d=st.integers(1, 5), data=st.data())
def test_unrolled_zd_inverse_equals_elementwise_negation(d, data):
    a = data.draw(st.tuples(*[st.integers(-2 ** 70, 2 ** 70)] * d), label="a")
    got = ZdGroup(d).inverse_coords(a)
    assert type(got) is tuple
    assert got == tuple(-x for x in a)
    assert ZdGroup(d).mul_coords(a, got) == (0,) * d


def test_unrolled_zd_inverse_beyond_int64():
    for d in range(1, 6):
        a = tuple(-(2 ** 63) - i for i in range(d))
        assert ZdGroup(d).inverse_coords(a) == tuple(2 ** 63 + i for i in range(d))


def test_heisenberg_is_noncommutative():
    a = H.element(1, 0, 0)
    b = H.element(0, 1, 0)
    assert (a * b).coords == (1, 1, 1)
    assert (b * a).coords == (1, 1, 0)


def test_heisenberg_inverse_formula():
    g = H.element(2, 3, 1)
    assert g.inverse().coords == (-2, -3, 5)
    assert (g * g.inverse()).coords == (g.inverse() * g).coords == (0, 0, 0)


def test_z1_product_set_examples():
    E = subset_from_coords(Z1, [(0,), (1,)])
    assert product_set(E, E).coords == {(0,), (1,), (2,)}
    W = product_set(inverse_set(Z1.box(3)), Z1.box(5))
    assert W.coords == {(k,) for k in range(-2, 5)}
    assert len(W) == 7


def test_symmetric_difference_examples():
    A = subset_from_coords(Z1, [(0,), (1,)])
    B = subset_from_coords(Z1, [(1,), (2,)])
    assert symmetric_difference_size(A, A) == 0
    assert symmetric_difference_size(A, B) == 2
    sq = Z2.box(10, 10)
    shifted = translate(sq, Z2.element(1, 0))
    assert symmetric_difference_size(sq, shifted) == 20


@given(group_subsets())
def test_product_set_cardinality_bounds(EF):
    E, F = EF
    P = product_set(E, F)
    assert max(len(E), len(F)) <= len(P) <= len(E) * len(F)
    assert product_set_size(E, F) == len(P)


@given(group_subsets(), st.data())
def test_translate_preserves_cardinality(EF, data):
    E, _ = EF
    a = E.group.element(*data.draw(coords_strategy(E.group)))
    T = translate(E, a)
    assert len(T) == len(E)
    assert T.coords == {mul(f, a).coords for f in E}


@given(group_subsets())
def test_inverse_set_involution(EF):
    E, _ = EF
    inv = inverse_set(E)
    assert len(inv) == len(E)
    assert inverse_set(inv).coords == E.coords


@given(group_subsets(), st.data())
def test_symmetric_difference_inclusion_exclusion(EF, data):
    A, B = EF
    expected = len(A) + len(B) - 2 * len(A.coords & B.coords)
    assert symmetric_difference_size(A, B) == expected


def test_fft_product_route_matches_naive(monkeypatch):
    E = subset_from_coords(
        Z2, {(x, y) for x in range(7) for y in range(5)} | {(-3, 2), (10, -4)}
    )
    F = subset_from_coords(Z2, {(x, y) for x in range(4) for y in range(6)})
    naive = groups_mod._product_set_naive(E, F)
    monkeypatch.setattr(groups_mod, "_FFT_PAIR_THRESHOLD", 1)
    fft = product_set(E, F)
    assert fft.coords == naive.coords
    assert product_set_size(E, F) == len(naive)


@given(group_subsets(max_size=6))
def test_fft_route_matches_on_random_zd_sets(EF):
    E, F = EF
    if not isinstance(E.group, ZdGroup):
        return
    naive = groups_mod._product_set_naive(E, F).coords
    assert groups_mod._zd_product_fft(E, F, groups_mod._plan(E, F)).coords == naive


def naive_coords(E, F):
    return groups_mod._product_set_naive(E, F).coords


def assert_kernel_matches_naive(E, F):
    want = naive_coords(E, F)
    assert product_set(E, F).coords == want
    assert product_set_size(E, F) == len(want)


@settings(max_examples=300)
@given(st.sampled_from(GROUPS), st.data())
def test_product_kernel_matches_naive_on_every_group(group, data):
    cs = coords_strategy(group, bound=data.draw(st.sampled_from([3, 8, 1000])))
    E = subset_from_coords(group, data.draw(st.frozensets(cs, min_size=1, max_size=12)))
    F = subset_from_coords(group, data.draw(st.frozensets(cs, min_size=1, max_size=12)))
    assert_kernel_matches_naive(E, F)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
def test_product_kernel_dense_boxes_use_bitmap(group, monkeypatch):
    E = inverse_set(group.box(*([3] * len(group.identity().coords))))
    F = group.box(*([4] * len(group.identity().coords)))
    plan = groups_mod._plan(E, F)
    assert plan.volume <= groups_mod._BITMAP_PAIRS_FACTOR * plan.pairs
    # Several small chunks: the bitmap must collect all of them.
    monkeypatch.setattr(groups_mod, "_CHUNK_PAIRS", 50)
    assert_kernel_matches_naive(E, F)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
def test_product_kernel_sparse_sets_use_sorted_unique(group, monkeypatch):
    dims = len(group.identity().coords)
    E = subset_from_coords(
        group, {tuple(random_element(group, 10 ** 4, 5, "e", i).coords) for i in range(60)})
    F = subset_from_coords(
        group, {tuple(random_element(group, 10 ** 4, 5, "f", i).coords) for i in range(40)}
        | {(0,) * dims, (1,) + (0,) * (dims - 1)})
    plan = groups_mod._plan(E, F)
    assert plan.volume > groups_mod._BITMAP_PAIRS_FACTOR * plan.pairs
    # Chunks of a few rows each exercise the running merge of uniques.
    monkeypatch.setattr(groups_mod, "_CHUNK_PAIRS", 90)
    assert_kernel_matches_naive(E, F)
    # A set times its own translate repeats products across chunks.
    assert_kernel_matches_naive(E, union_of([E, translate(E, group.element(*([1] * dims)))]))


def test_heisenberg_negative_coordinates_twist_bounds():
    # a spans [-5, 3] and b' spans [-4, 6]: the twist a * b' ranges over
    # [-30, 20], so its least and greatest values are corner products.
    E = subset_from_coords(H, [(a, b, c) for a in (-5, -1, 3) for b in (-2, 2) for c in (-7, 0)])
    F = subset_from_coords(H, [(a, b, c) for a in (-3, 0) for b in (-4, 1, 6) for c in (-1, 5)])
    plan = groups_mod._plan(E, F)
    assert plan.cross_lo == -30
    assert plan.lo[2] == -7 + -1 + -30
    assert plan.lo[2] + plan.shape[2] - 1 == 0 + 5 + 20
    assert_kernel_matches_naive(E, F)
    assert_kernel_matches_naive(F, E)
    assert_kernel_matches_naive(inverse_set(E), E)


@settings(max_examples=200)
@given(st.sampled_from(GROUPS), st.data())
def test_product_of_union_is_union_of_products(group, data):
    """(A_1 u ... u A_k) B = A_1 B u ... u A_k B, sized by the kernel."""
    cs = coords_strategy(group, bound=6)
    parts = data.draw(st.lists(st.frozensets(cs, min_size=1, max_size=6), min_size=1,
                               max_size=4))
    B = subset_from_coords(group, data.draw(st.frozensets(cs, min_size=1, max_size=6)))
    A = [subset_from_coords(group, part) for part in parts]
    want = set()
    for Ai in A:
        want |= naive_coords(Ai, B)
    assert product_set_size(union_of(A), B) == len(want)


def test_subset_checks_each_element_group():
    assert subset(Z2, [Z2.element(1, 2), Z2.element(1, 2)]).coords == {(1, 2)}
    with pytest.raises(GroupMismatchError):
        subset(Z2, [Z2.element(0, 0), Z1.element(3)])
    with pytest.raises(GroupMismatchError):
        union_of([Z1.box(2), Z2.box(1, 1)])


def test_membership_and_iteration_give_group_elements():
    assert [f.name for f in dataclasses.fields(FiniteSubset)] == ["group", "coords"]
    F = Z2.box(2, 3)
    assert Z2.element(1, 2) in F
    assert Z2.element(2, 0) not in F
    assert H.element(1, 2, 0) not in H.box(1, 1, 1)
    assert Z1.element(0) not in Z2.box(1, 1)
    assert {g.coords for g in F} == F.coords
    assert all(g.group == Z2 for g in F)
    assert [g.coords for g in F.sorted_elements()] == sorted(F.coords)


@pytest.fixture
def naive_calls(monkeypatch):
    calls = []
    original = groups_mod._product_set_naive

    def counting(E, F):
        calls.append((E, F))
        return original(E, F)

    monkeypatch.setattr(groups_mod, "_product_set_naive", counting)
    return calls


@pytest.mark.parametrize("E_coords, F_coords, group, fallback", [
    # Within the margin: keyed in int64.
    ([(2 ** 61,), (2 ** 61 - 5,)], [(1,), (3,)], Z1, False),
    ([(-(2 ** 61), 4), (-(2 ** 61) + 2, 4)], [(-(2 ** 61) + 1, 0), (-(2 ** 61), 2)], Z2, False),
    # A bound of E * F reaches past 2^62.
    ([(2 ** 62 - 1,), (2 ** 62 - 4,)], [(1,), (2,)], Z1, True),
    ([(-(2 ** 62), 0)], [(-1, 0), (0, 3)], Z2, True),
    # Coordinates beyond int64 itself.
    ([(2 ** 70,), (3,)], [(1,), (-2 ** 64,)], Z1, True),
    ([(0, 0, 2 ** 63)], [(1, 2, 3)], H, True),
    # The Heisenberg twist a * b' alone passes 2^62.
    ([(2 ** 31, 0, 0), (1, 1, 1)], [(0, 2 ** 31 + 1, 0), (2, 0, 5)], H, True),
    # A box volume past 2^62 with every coordinate small enough.
    ([(0, 0, 0), (2 ** 21, 2 ** 21, 2 ** 21)], [(0, 0, 0)], Z3, True),
])
def test_product_int64_guard_falls_back_exactly(E_coords, F_coords, group, fallback,
                                                naive_calls):
    E = subset_from_coords(group, E_coords)
    F = subset_from_coords(group, F_coords)
    want = {group.mul_coords(e, f) for e in E_coords for f in F_coords}
    assert product_set(E, F).coords == want
    assert product_set_size(E, F) == len(want)
    assert len(naive_calls) == (2 if fallback else 0)


def _add_half_to_first_cell(conv):
    conv[(0,) * conv.ndim] += 0.5


def _cancelling_errors(conv):
    # +0.6 on an empty cell and -0.6 on a cell counting two pairs: the
    # rounded mass is unchanged, but the support gains a point.
    counts = np.rint(conv)
    conv[tuple(np.argwhere(counts == 0)[0])] += 0.6
    conv[tuple(np.argwhere(counts >= 2)[0])] -= 0.6


@pytest.mark.parametrize("perturb", [_add_half_to_first_cell, _cancelling_errors])
def test_fft_rounding_guard_falls_back_to_keys(perturb, monkeypatch):
    E = subset_from_coords(Z2, {(x, y) for x in range(6) for y in range(5)} | {(9, -2)})
    F = subset_from_coords(Z2, {(x, y) for x in range(4) for y in range(7)})
    want = naive_coords(E, F)
    exact_conv, exact_keys = groups_mod.fftconvolve, groups_mod._enumerated_keys
    fallbacks = []

    def perturbed(in1, in2):
        out = exact_conv(in1, in2).copy()
        perturb(out)
        return out

    def enumerated(plan):
        fallbacks.append(plan.pairs)
        return exact_keys(plan)

    monkeypatch.setattr(groups_mod, "_FFT_PAIR_THRESHOLD", 1)
    monkeypatch.setattr(groups_mod, "fftconvolve", perturbed)
    monkeypatch.setattr(groups_mod, "_enumerated_keys", enumerated)
    assert product_set(E, F).coords == want
    assert product_set_size(E, F) == len(want)
    assert fallbacks == [len(E) * len(F)] * 2


def test_fftconvolve_matches_direct_sums():
    a = np.arange(12, dtype=np.float64).reshape(3, 4) % 5
    b = np.array([[1.0, 0.0, 2.0], [0.5, 1.0, 0.0]])
    want = np.zeros((4, 6))
    for i, j in np.ndindex(a.shape):
        want[i:i + 2, j:j + 3] += a[i, j] * b
    assert np.allclose(groups_mod.fftconvolve(a, b), want, atol=1e-9)


def test_fast_len_is_five_smooth():
    assert [groups_mod._fast_len(n) for n in (1, 7, 11, 13, 17, 97, 127)] == [
        1, 8, 12, 15, 18, 100, 128]


def test_cli_import_does_not_load_scipy():
    src = str(Path(groups_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, fiberent.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_group_mismatch_is_rejected():
    with pytest.raises(GroupMismatchError):
        mul(Z1.element(1), Z2.element(1, 0))
    with pytest.raises(GroupMismatchError):
        product_set(Z1.box(2), Z2.box(2, 2))
    with pytest.raises(GroupMismatchError):
        translate(Z1.box(2), Z2.element(0, 0))


def test_element_arity_is_checked():
    with pytest.raises((TypeError, ValueError)):
        Z2.element(1)
    with pytest.raises((TypeError, ValueError)):
        Z1.element(1, 2)


def test_box_and_ball_sizes():
    assert len(Z1.box(5)) == 5
    assert len(Z2.box(3, 4)) == 12
    assert len(Z3.box(2, 2, 2)) == 8
    assert len(H.box(2, 3, 4)) == 24


def test_random_element_is_deterministic_and_bounded():
    g = random_element(Z2, 5, 123, "a")
    h = random_element(Z2, 5, 123, "a")
    assert g.coords == h.coords
    assert max(abs(c) for c in g.coords) <= 5
    other = random_element(Z2, 5, 123, "b")
    draws = {random_element(Z2, 5, 123, "a", i).coords for i in range(32)}
    assert len(draws) > 1
    assert all(max(abs(c) for c in cs) <= 5 for cs in draws)
    assert max(abs(c) for c in other.coords) <= 5


@pytest.mark.parametrize("radius", [0, 1, 10 ** 23])
@pytest.mark.parametrize("group", [Z1, Z3, H], ids=["z1", "z3", "heisenberg"])
def test_random_element_stays_in_range_at_any_radius(group, radius):
    # config's `radius` has no maximum, so the integer map must hold past 2^53
    for i in range(50):
        coords = random_element(group, radius, 9, "r", i).coords
        assert len(coords) == group.rank
        assert all(type(c) is int and -radius <= c <= radius for c in coords)


def test_random_element_reaches_every_value():
    draws = {c for i in range(100) for c in random_element(Z2, 2, 31, "v", i).coords}
    assert draws == set(range(-2, 3))


@pytest.mark.parametrize("radius", [-1, -2])
def test_random_element_rejects_a_negative_radius(radius):
    # n = 2 radius + 1 would be <= -1, and the draws land outside [-radius, radius]
    with pytest.raises(ValueError, match="radius"):
        random_element(Z2, radius, 123, "a")
    assert random_element(Z2, 0, 123, "a").coords == (0, 0)


def test_finite_subset_set_algebra():
    A = Z1.box(4)
    B = translate(A, Z1.element(2))
    assert union_of([A, B]).coords == {(k,) for k in range(6)}
    assert A.is_subset(union_of([A, B])) and not A.is_subset(B)
    assert A.sorted_elements() == sorted(A.sorted_elements(), key=lambda g: g.coords)
