"""Følner sequences: defects, tempered constants, validation gates."""

import dataclasses
import random
from fractions import Fraction
from itertools import product as iterproduct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberent.config import parse_config
from fiberent.folner import (
    FolnerSequence,
    box_folner,
    box_folner_sizes,
    folner_defect,
    heisenberg_folner,
    tempered_constant,
    validate_sequence,
    window_folner,
)
from fiberent.groups import (
    GroupMismatchError,
    HeisenbergGroup,
    ZdGroup,
    _product_set_naive,
    inverse_set,
    product_set_size,
    subset_from_coords,
    union_of,
)

H = HeisenbergGroup()
Z1 = ZdGroup(1)


def test_box_folner_shapes():
    seq = box_folner(2, 10)
    assert len(seq.sets) == 10
    assert len(seq.set(1)) == 1
    assert len(seq.set(10)) == 100
    assert seq.set(3).coords == {(x, y) for x in range(3) for y in range(3)}
    with pytest.raises(IndexError):
        seq.set(0)
    with pytest.raises(IndexError):
        seq.set(11)


@pytest.mark.parametrize("group", [ZdGroup(1), ZdGroup(2), ZdGroup(3), H], ids=lambda g: g.tag)
def test_standard_window_is_the_explicit_box(group):
    seq = window_folner(group, range(1, 5))
    for n in range(1, 5):
        extents = (n, n, n * n) if group == H else (n,) * group.d
        assert group.window_extents(n) == extents
        assert len(seq.set(n)) == n ** (4 if group == H else group.d)
        assert seq.set(n).coords == set(iterproduct(*(range(e) for e in extents)))
        assert seq.set(n) == group.box(*extents)
    assert group.rank == len(group.identity().coords)


def test_box_folner_sizes_schedule():
    seq = box_folner_sizes(1, [2, 4, 8])
    assert [len(seq.set(n)) for n in (1, 2, 3)] == [2, 4, 8]
    with pytest.raises(ValueError):
        box_folner_sizes(1, [4, 4])
    with pytest.raises(ValueError):
        box_folner_sizes(1, [8, 4])


def test_heisenberg_folner_sizes():
    seq = heisenberg_folner(3)
    assert [len(seq.set(n)) for n in (1, 2, 3)] == [1, 16, 81]
    assert seq.set(2).coords == {
        (a, b, c) for a in range(2) for b in range(2) for c in range(4)
    }


def test_defect_closed_form_z1():
    seq = box_folner(1, 16)
    K_with_e = subset_from_coords(ZdGroup(1), [(0,), (1,)])
    K_shift = subset_from_coords(ZdGroup(1), [(1,)])
    for n in range(1, 17):
        assert folner_defect(K_with_e, seq.set(n)) == Fraction(1, n)
        assert folner_defect(K_shift, seq.set(n)) == Fraction(2, n)


def test_defect_closed_form_z2_example():
    F = box_folner(2, 10).set(10)
    K = subset_from_coords(ZdGroup(2), [(0, 0), (1, 0)])
    assert folner_defect(K, F) == Fraction(1, 10)


def test_defect_ball_closed_form_and_monotone():
    # K = [-1, 1]^d: K F_n = [-1, n+1)^d exactly, so the defect is
    # (1 + 2/n)^d - 1; strictly decreasing in n.
    for d in (1, 2, 3):
        group = ZdGroup(d)
        seq = box_folner(d, 12)
        K = subset_from_coords(group, iterproduct((-1, 0, 1), repeat=d))
        last = None
        for n in range(1, 13):
            expected = Fraction((n + 2) ** d - n**d, n**d)
            got = folner_defect(K, seq.set(n))
            assert got == expected
            if last is not None:
                assert got < last
            last = got


def test_defect_translate_bound_exact():
    # For K = {k} or {e, k} over boxes: |K F_n delta F_n| / |F_n| is at
    # most 2 d ||k||_inf / n, exactly, for every n up to 64.
    cases = [(1, (3,)), (2, (1, 2)), (2, (2, 0)), (3, (1, 1, 1))]
    for d, k in cases:
        group = ZdGroup(d)
        norm = max(abs(c) for c in k)
        pair = subset_from_coords(group, [tuple([0] * d), k])
        single = subset_from_coords(group, [k])
        for n in (1, 2, 3, 5, 8, 16, 33, 64):
            F = group.box(*([n] * d))
            bound = Fraction(2 * d * norm, n)
            assert folner_defect(pair, F) <= bound
            assert folner_defect(single, F) <= bound


def test_tempered_constant_z1_example():
    seq = box_folner(1, 8)
    # F_4^{-1} F_5 = [-3, 5) has 8 points over |F_5| = 5.
    assert tempered_constant(seq, 5) == Fraction(8, 5)


def test_tempered_bound_for_boxes():
    for d in (1, 2, 3):
        seq = box_folner(d, 8 if d == 3 else 16)
        for n in range(2, len(seq.sets) + 1):
            c = tempered_constant(seq, n)
            assert c <= Fraction(2**d)
            assert c == Fraction((2 * n - 2) ** d, n**d)


def _skipping_sequence():
    """A box sequence whose middle set leaves the nest: F_2 = {5, 6}."""
    return dataclasses.replace(
        box_folner(1, 3), sets=(Z1.box(1), subset_from_coords(Z1, [(5,), (6,)]), Z1.box(8))
    )


def test_tempered_constant_matches_brute_force_union():
    """The one-product union equals the union of the per-k products."""
    skipping = _skipping_sequence()
    spread = FolnerSequence(
        ZdGroup(2),
        tuple(subset_from_coords(ZdGroup(2), pts) for pts in (
            [(0, 0)], [(0, 0), (3, -1)], [(1, 2), (-2, 0), (4, 4)],
            [(x, y) for x in range(-1, 3) for y in range(2)],
        )),
    )
    for seq in (box_folner(2, 8), heisenberg_folner(3), skipping, spread):
        for n in range(2, len(seq.sets) + 1):
            Fn = seq.set(n)
            union = set()
            for k in range(1, n):
                union |= _product_set_naive(inverse_set(seq.set(k)), Fn).coords
            assert tempered_constant(seq, n) == Fraction(len(union), len(Fn))


def test_tempered_constant_of_non_nested_sequence():
    # (F_1 u F_2)^{-1} F_3 = {-6, ..., 7}: 14 points over |F_3| = 8.  The
    # F_2^{-1} F_3 of a nested sequence would give 9/8.
    assert tempered_constant(_skipping_sequence(), 3) == Fraction(7, 4)


def test_tempered_constant_equals_the_union_form():
    # a nested sequence reads F_{n-1} for the union; a non-nested one joins them
    nested, skipping = box_folner(2, 6), _skipping_sequence()
    assert nested.nested and not skipping.nested
    for seq in (nested, skipping):
        for n in range(2, len(seq) + 1):
            Fn = seq.set(n)
            union = union_of(seq.sets[:n - 1])
            want = Fraction(product_set_size(inverse_set(union), Fn), len(Fn))
            assert tempered_constant(seq, n) == want


def test_heisenberg_defect_brute_force_oracle():
    def hmul(g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    seq = heisenberg_folner(4)
    K = subset_from_coords(H, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    defects = {}
    for n in (2, 4):
        F = {(a, b, c) for a in range(n) for b in range(n) for c in range(n * n)}
        KF = {hmul(k, f) for k in K.coords for f in F}
        defects[n] = Fraction(len(KF ^ F), len(F))
        assert folner_defect(K, seq.set(n)) == defects[n]
    assert defects[2] == Fraction(5, 4)
    assert defects[4] == Fraction(153, 256)
    assert defects[4] < defects[2]


def test_validate_provided_sequences():
    for seq in (box_folner(1, 8), box_folner(2, 8), heisenberg_folner(3)):
        report = validate_sequence(seq)
        assert report.ok
        assert report.identity_ok
        assert report.nested_ok
        assert report.size_ok
    assert validate_sequence(box_folner(2, 8)).max_tempered <= 4


def test_report_carries_tempered_constants():
    seq = box_folner(2, 5)
    report = validate_sequence(seq)
    assert report.tempered == tuple(tempered_constant(seq, n) for n in range(2, 6))
    assert report.tempered == tuple(Fraction(2 * n - 2, n) ** 2 for n in range(2, 6))
    assert report.max_tempered == Fraction(64, 25)
    single = validate_sequence(box_folner(2, 1))
    assert single.tempered == ()
    assert single.max_tempered is None


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _nested_heisenberg(steps: int, seed: int) -> FolnerSequence:
    """Growing unions of scattered points of H around e: nested, not boxes."""
    rand, coords, sets = random.Random(seed), {(0, 0, 0)}, []
    for _ in range(steps):
        coords |= {tuple(rand.randint(-3, 3) for _ in range(3)) for _ in range(rand.randint(1, 9))}
        sets.append(subset_from_coords(H, coords))
    return FolnerSequence(H, tuple(sets))


@pytest.mark.parametrize("name", ["folner_z3.cfg", "folner_heisenberg.cfg"])
def test_report_reads_constants_against_the_previous_set_of_shipped_schedules(name):
    # a nested sequence's union of F_1..F_(n-1) is F_(n-1): the report and
    # the general definition agree at every n
    cfg = parse_config((CONFIGS / name).read_text(), "folner-check")
    seq = window_folner(cfg.get("group"), range(1, cfg.get("n_max") + 1))
    assert validate_sequence(seq).tempered == tuple(
        tempered_constant(seq, n) for n in range(2, len(seq) + 1))


@pytest.mark.parametrize("seed", range(4))
def test_report_reads_constants_against_the_previous_set_of_nested_heisenberg_sets(seed):
    seq = _nested_heisenberg(6, seed)
    report = validate_sequence(seq)
    assert report.nested_ok
    assert report.tempered == tuple(tempered_constant(seq, n) for n in range(2, len(seq) + 1))
    shuffled = FolnerSequence(H, seq.sets[::-1])  # not nested: no constants
    assert validate_sequence(shuffled).tempered == ()


def test_validator_rejects_identity_failure():
    bad = FolnerSequence(
        group=ZdGroup(2),
        sets=(subset_from_coords(ZdGroup(2), [(1, 0)]),),
    )
    report = validate_sequence(bad)
    assert not report.identity_ok
    assert not report.ok


@pytest.mark.parametrize("where", [0, 1])
def test_sequence_rejects_an_empty_set(where):
    # an empty F_n has no information rate: |F_n| divides every estimate
    sets = [Z1.box(2), Z1.box(3)]
    sets[where] = subset_from_coords(Z1, [])
    with pytest.raises(ValueError, match="non-empty"):
        FolnerSequence(Z1, tuple(sets))


def test_sequence_rejects_a_set_of_another_group():
    # the same error type as every other layer's group check
    with pytest.raises(GroupMismatchError, match="zd:2 vs zd:1"):
        FolnerSequence(Z1, (Z1.box(2), ZdGroup(2).box(2, 2)))


def test_validator_flags_size_gate():
    # |F_2| = 2 meets the gate |F_n| >= n but not the strict form.
    g = ZdGroup(1)
    seq = FolnerSequence(
        group=g,
        sets=(g.box(1), g.box(2), g.box(4)),
    )
    report = validate_sequence(seq)
    assert report.size_ok
    assert not report.size_strict
    small = FolnerSequence(
        group=g,
        sets=(g.box(1), g.box(2), subset_from_coords(g, [(0,), (1,)])),
    )
    rep2 = validate_sequence(small)
    assert not rep2.size_ok
    assert not rep2.ok


def test_validator_rejects_non_nested():
    g = ZdGroup(1)
    seq = FolnerSequence(
        group=g,
        sets=(g.box(1), subset_from_coords(g, [(5,), (6,)]), g.box(8)),
    )
    report = validate_sequence(seq)
    assert not report.nested_ok
    assert not report.ok
    assert report.tempered == ()
    assert report.max_tempered is None


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=10),
    st.data(),
)
def test_defect_vanishes_along_boxes(d, n, data):
    group = ZdGroup(d)
    k = tuple(data.draw(st.integers(min_value=-2, max_value=2)) for _ in range(d))
    K = subset_from_coords(group, [tuple([0] * d), k])
    big = folner_defect(K, group.box(*([n] * d)))
    bigger_n = 2 * n
    assert folner_defect(K, group.box(*([bigger_n] * d))) <= big
