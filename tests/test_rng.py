"""Stream draws: the mix64 byte contract, the version-2 site generator,
its batch form and a statistical gate on its draws."""

import enum
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberent.rng as rng
from fiberent.rds import MarkovModel, ProductSampler, _cumulative, _draw, exact_distribution
from fiberent.rng import _encode, derive_seed, mix64, uniform01, uniform01_stream

# mix64 on fixed label paths.  Every derived seed and stream key in the
# package is a function of these bytes, so a change here changes every
# shipped artifact.
GOLDEN_MIX64 = [
    ((0, "traj", 0), 0x22A2DF2799759C42),
    ((1, "c", (0, 0)), 0x0A86BEC04404462E),
    ((2**64 - 1, "c", (3, -7)), 0x5E53E35D44A21ED5),
    ((12345, "m", -5), 0xCB01FED95693A52D),
    ((7, "keep", 3, 2, (0, 5, -1)), 0xD5390CFC6AD13DC4),
    ((42, "x", True, 2**70, ()), 0xE7BC5F56B3A2C936),
]


@pytest.mark.parametrize("args, expected", GOLDEN_MIX64)
def test_mix64_golden_values(args, expected):
    assert mix64(*args) == expected


def test_encode_bytes_of_a_site_path():
    inner = b"i" + struct.pack("<q", 3) + b"i" + struct.pack("<q", -7)
    assert _encode(("c", (3, -7))) == b"s\x01\x00\x00\x00c" + b"(\x12\x00\x00\x00" + inner


class Label(str):
    pass


class Colour(enum.IntEnum):
    RED = 3


# _encode's byte layout written out: "i" and an int64; "I", a length and the
# decimal digits past int64; "b1" / "b0"; "s", a length and UTF-8; "(", a
# length and the parts.  Lengths are little-endian uint32s.
GOLDEN_ENCODE = [
    ((-(2**63),), b"i" + bytes(7) + b"\x80"),
    ((2**63 - 1,), b"i" + b"\xff" * 7 + b"\x7f"),
    ((2**63,), b"I\x13\x00\x00\x009223372036854775808"),
    ((-(2**63) - 1,), b"I\x14\x00\x00\x00-9223372036854775809"),
    ((True, False, 1), b"b1b0i\x01" + bytes(7)),
    ((Colour.RED, -1), b"i\x03" + bytes(7) + b"i" + b"\xff" * 8),
    ((Label("c"), "c"), b"s\x01\x00\x00\x00c" * 2),
    (("\u03c9x",), b"s\x03\x00\x00\x00\xcf\x89x"),
    (((1, ("a",)), ()), b"(\x14\x00\x00\x00i\x01" + bytes(7)
     + b"(\x06\x00\x00\x00s\x01\x00\x00\x00a" + b"(\x00\x00\x00\x00"),
]


@pytest.mark.parametrize("parts, expected", GOLDEN_ENCODE)
def test_encode_golden_bytes(parts, expected):
    assert _encode(parts) == expected
    assert _encode(parts) == expected  # again, with any str label memoised


def general_encode(parts):
    """_encode without its fast paths: every part by its isinstance branch."""
    chunks = []
    for part in parts:
        if isinstance(part, bool):
            chunks.append(b"b1" if part else b"b0")
        elif isinstance(part, int) and -(2**63) <= part < 2**63:
            chunks.append(b"i" + struct.pack("<q", part))
        elif isinstance(part, (int, str)):
            raw = (str(part) if isinstance(part, int) else part).encode()
            chunks.append((b"I" if isinstance(part, int) else b"s")
                          + struct.pack("<I", len(raw)) + raw)
        else:
            inner = general_encode(part)
            chunks.append(b"(" + struct.pack("<I", len(inner)) + inner)
    return b"".join(chunks)


labels = st.recursive(
    st.integers(-(2**70), 2**70) | st.booleans() | st.text(max_size=4)
    | st.sampled_from(["c", "traj", Label("c"), Colour.RED]),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8)


@given(parts=st.lists(labels, max_size=5).map(tuple))
def test_encode_equals_its_general_branch(parts):
    assert _encode(parts) == general_encode(parts)


def test_str_chunks_stay_bounded_and_exact(monkeypatch):
    monkeypatch.setattr(rng, "_STR_CHUNKS", {})
    labels = [Label("sub")] + [f"label-{i}" for i in range(rng._STR_CHUNKS_CAP + 50)]
    for label in labels * 2:
        raw = label.encode()
        assert _encode((label,)) == b"s" + struct.pack("<I", len(raw)) + raw
    assert len(rng._STR_CHUNKS) == rng._STR_CHUNKS_CAP
    assert set(map(type, rng._STR_CHUNKS)) == {str}  # a subclass is never kept


def _finaliser(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def spec_draw(seed, prefix, tail):
    """A version-2 draw written out from its definition: the key is
    mix64(seed, *prefix); the words are a tag (2^64 - 1 for an int, the
    length for a tuple) and the coordinates mod 2^64, or, for any other
    tail, the tag 2^64 - 2 and mix64(key, tail); each word is XORed into
    the state and finalised."""
    key = mix64(seed, *prefix)
    parts = tail if type(tail) is tuple else (tail,)
    if all(type(p) is int and -(2**63) <= p < 2**63 for p in parts):
        words = [len(tail) if type(tail) is tuple else 2**64 - 1, *parts]
    else:
        words = [2**64 - 2, mix64(key, tail)]
    h = key
    for w in words:
        h = _finaliser(h ^ w % 2**64)
    return (h >> 11) / 2**53


# Draws pinned as exact binary fractions: every realised sample, cover and
# digest in the package is a function of these values.
GOLDEN_DRAWS = [
    (0, ("c",), (0, 0), "0x1.c2fce4387e154p-2"),
    (1, ("c",), (3, -7), "0x1.0b1d7d1609a55p-1"),
    (2**64 - 1, ("c",), (-(2**63), 2**63 - 1), "0x1.eefa21eeec690p-1"),
    (12345, ("m",), -5, "0x1.3dfadcad6c64cp-3"),
    (12345, ("m",), 0, "0x1.0df1c1a0de057p-1"),
    (7, ("keep", 3, 2), (0, 5, -1), "0x1.3fd975ec516fbp-1"),
    (42, ("c",), (), "0x1.e0d8fbc141fc7p-1"),
    (42, ("c",), True, "0x1.fa44cbac78297p-1"),
    (42, ("c",), 2**70, "0x1.cddff60dcde51p-1"),
    (42, ("x",), "label", "0x1.5623d5d43b696p-2"),
    (5, ("c",), (5,), "0x1.28f65bb972060p-1"),
    (5, ("c",), 5, "0x1.c2e686a419dfep-2"),
]


@pytest.mark.parametrize("seed, prefix, tail, expected", GOLDEN_DRAWS)
def test_stream_draw_golden_values(seed, prefix, tail, expected):
    draw = uniform01_stream(seed, *prefix)
    assert draw(tail) == float.fromhex(expected) == spec_draw(seed, prefix, tail)
    assert draw.many([tail]).tolist() == [float.fromhex(expected)]


int64 = st.integers(-(2**63), 2**63 - 1)
labels = st.one_of(
    int64,
    st.integers(-(2**70), 2**70),  # mostly outside int64: the fallback word
    st.sampled_from([2**63, -(2**63) - 1, 2**63 - 1, -(2**63), -1, 0, 1]),
    st.booleans(),
)
prefixes = st.one_of(
    st.just(("c",)),
    st.just(("m",)),
    st.tuples(st.just("keep"), st.integers(0, 40), st.integers(0, 40)),
)
tails = st.one_of(labels, st.lists(labels, min_size=1, max_size=4).map(tuple))


@settings(max_examples=400)
@given(seed=st.integers(0, 2**64 - 1), prefix=prefixes, tail=tails)
def test_stream_equals_spec_draw(seed, prefix, tail):
    assert uniform01_stream(seed, *prefix)(tail) == spec_draw(seed, prefix, tail)


@pytest.mark.parametrize("tail", [
    (), (True,), (1, False), 2**63, -(2**63) - 1, (0, 2**64), ("s",), ((1, 2), 3), "label",
    tuple(range(-4, 5)),  # nine int64s: tuples of any length take the word path
])
def test_stream_fallback_tails(tail):
    draw = uniform01_stream(99, "c")
    assert draw(tail) == spec_draw(99, ("c",), tail)
    assert draw.many([tail, tail]).tolist() == [draw(tail)] * 2


def test_fallback_and_word_tails_draw_differently():
    # an int, its 1-tuple, a bool, an int equal to 5 mod 2^64 and a longer
    # tuple: tags and the fallback word keep each label distinct
    tails = [5, (5,), True, 2**64 + 5, (5, 0), 1, (1,), (True,)]
    draw = uniform01_stream(2024, "c")
    values = [draw(t) for t in tails]
    assert len(set(values)) == len(tails)
    assert draw.many(tails).tolist() == values


@pytest.mark.parametrize("tail", [
    (0,), (5,), (-1,), (-(2**63),), (2**63 - 1,),  # 1-tuples, Z cover centers
    (0, 0), (3, -7), (-(2**63), 2**63 - 1),  # 2-tuples, Z^2 sites and centers
    (1, 2, 3), (-4, 0, 2**62),  # 3-tuples, Heisenberg sites
    (True,), (False,), (1, False), (True, 2), (1, 2, True),
    (2**63,), (-(2**63) - 1,), (1, 2**64), (-(2**70), 0), (0, 1, 2**63),
    ((1,),), ((1, 2),), ((1,), 2), (1, (2, 3)),
    tuple(range(9)), tuple(range(-9, 0)),
])
def test_pack_tail_bit_for_bit(tail):
    """A tail packs into the same words, scalar and batch, as the spec says."""
    prefix = ("keep", 2, 1)
    draw = uniform01_stream(2024, *prefix)
    assert draw(tail) == spec_draw(2024, prefix, tail)
    assert draw.many([tail, tail, tail]).tolist() == [draw(tail)] * 3


@settings(max_examples=200)
@given(seed=st.integers(0, 2**64 - 1),
       window=st.lists(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=2).map(tuple),
                       min_size=1, max_size=6))
def test_short_int_tuples_pack_bit_for_bit(seed, window):
    draw = uniform01_stream(seed, "keep", 1, 1)
    assert draw.many(window).tolist() == [spec_draw(seed, ("keep", 1, 1), t) for t in window]


@pytest.mark.parametrize("tail", [1.5, (1, 2.0), (None,), None])
def test_stream_rejects_what_encode_rejects(tail):
    with pytest.raises(TypeError):
        uniform01(5, "c", tail)
    with pytest.raises(TypeError):
        uniform01_stream(5, "c")(tail)
    with pytest.raises(TypeError):
        uniform01_stream(5, "c").many([(0, 0), tail])


def test_one_stream_serves_many_draws():
    # a stream caches the state after each tag; that cache never leaks
    # into a value, whatever order the draws come in
    centers = [(a, b) for a in range(-3, 4) for b in range(-3, 4)] + [5, (), (1,), True]
    fresh = [uniform01_stream(2024, "keep", 2, 1)(c) for c in centers]
    draw = uniform01_stream(2024, "keep", 2, 1)
    assert [draw(c) for c in reversed(centers)] == fresh[::-1]
    assert [draw(c) for c in centers] == fresh


def test_samplers_draw_the_reference_uniforms():
    dist = exact_distribution([0.2, 0.5, 0.3])
    sampler = ProductSampler(_cumulative(dist), 31)
    cumulative = _cumulative(dist)
    for coords in [(0, 0), (-4, 9), (2**40, -3)]:
        assert sampler.symbol_at(coords) == _draw(cumulative, spec_draw(31, ("c",), coords))

    model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
    x = model.sample_x(model.sample_omega(8), 8)
    seed = derive_seed(8, "x")
    fwd = tuple(_cumulative(row) for row in model.transition)
    expected = [_draw(_cumulative(model.stationary), spec_draw(seed, ("m",), 0))]
    for k in range(1, 6):
        expected.append(_draw(fwd[expected[-1]], spec_draw(seed, ("m",), k)))
    assert [x.sampler.symbol_at((k,)) for k in range(6)] == expected


# Windows of tails: one int64 or one tuple arity throughout (the array
# path), with one odd tail mixed in, or any labels at all.
int64_tuples = st.integers(0, 9).flatmap(lambda n: st.tuples(*[int64] * n))
odd_tails = st.one_of(tails, st.tuples(*[int64] * 9), st.just(()), st.just((True, 1)))
tail_lists = st.one_of(
    st.lists(int64, max_size=12),
    st.integers(0, 9).flatmap(lambda n: st.lists(st.tuples(*[int64] * n), max_size=12)),
    st.tuples(st.lists(int64_tuples, max_size=12), odd_tails, st.integers(0, 12)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]),
    st.lists(st.one_of(tails, int64_tuples), max_size=12),
)


def _check_batch(seed, prefix, window):
    draw = uniform01_stream(seed, *prefix)
    batch = draw.many(window)
    assert batch.dtype == np.float64 and len(batch) == len(window)
    assert batch.tolist() == [draw(t) for t in window]


@settings(max_examples=300)
@given(seed=st.integers(0, 2**64 - 1), prefix=prefixes, window=tail_lists,
       block=st.sampled_from([1, 2, 3, 5, rng._BLOCK]))
def test_batch_draws_equal_scalar_draws(seed, prefix, window, block):
    with mock.patch.object(rng, "_BLOCK", block):  # blocks end anywhere in a window
        _check_batch(seed, prefix, window)


@pytest.mark.parametrize("window", [
    [], [()], [(), ()], [True, 1], [1, True], [2**63, 0], [0, -(2**63) - 1],
    [(1,), (1, 2)], [(1, 2), (3, 2**64)], [tuple(range(9))] * 2, [tuple(range(8))] * 3,
    [(-(2**63), 2**63 - 1)], range(-5, 5), range(5, -5, -1),
])
def test_batch_draw_edge_windows(window):
    _check_batch(77, ("m",), window)


def test_batch_draws_work_in_chunks(monkeypatch):
    # an array block, a mixed block, then a short array block
    monkeypatch.setattr(rng, "_BLOCK", 4)
    window = [(1, 2), (3, 4), (5, 6), (7, 8), (9,), (True, 0), 2**70, 5, (0, 0), (-1, -1)]
    draw = uniform01_stream(3, "c")
    assert draw.many(window).tolist() == [draw(t) for t in window]


class TestEncodedOnce:
    """`many` keeps the last tuple it encoded, matched by identity; a draw
    from the kept columns equals the scalar draws bit for bit."""

    WINDOW = tuple((a, b) for a in range(-20, 20) for b in range(-3, 3))

    def test_the_same_tuple_drawn_twice(self):
        draw = uniform01_stream(5, "c")
        expected = [draw(t) for t in self.WINDOW]
        assert draw.many(self.WINDOW).tolist() == expected
        assert rng._encoded[0] is self.WINDOW
        assert draw.many(self.WINDOW).tolist() == expected

    def test_the_same_tuple_in_two_streams(self):
        omega, x = uniform01_stream(5, "omega"), uniform01_stream(5, "x")
        assert omega.many(self.WINDOW).tolist() == [omega(t) for t in self.WINDOW]
        assert x.many(self.WINDOW).tolist() == [x(t) for t in self.WINDOW]

    def test_another_tuple_drawn_in_between(self):
        draw = uniform01_stream(9, "c")
        other = tuple((a, a) for a in range(50))
        first = draw.many(self.WINDOW).tolist()
        assert draw.many(other).tolist() == [draw(t) for t in other]
        assert rng._encoded[0] is other
        assert draw.many(self.WINDOW).tolist() == first == [draw(t) for t in self.WINDOW]

    def test_a_list_is_not_kept(self):
        draw = uniform01_stream(9, "c")
        draw.many(self.WINDOW)
        window = list(self.WINDOW)
        assert draw.many(window).tolist() == [draw(t) for t in window]
        assert rng._encoded[0] is self.WINDOW

    def test_a_tuple_longer_than_a_block(self):
        # The second block holds an odd tail, so it is drawn scalar from the
        # kept blocks too.
        window = tuple((k, -k) for k in range(rng._BLOCK + 7)) + ((True, 1),)
        draw = uniform01_stream(11, "c")
        expected = [draw(t) for t in window]
        assert draw.many(window).tolist() == expected
        assert [stop for _, stop, _ in rng._encoded[1]] == [rng._BLOCK, len(window)]
        assert draw.many(window).tolist() == expected

    def test_kept_blocks_do_not_depend_on_the_block_size(self, monkeypatch):
        draw = uniform01_stream(12, "c")
        monkeypatch.setattr(rng, "_BLOCK", 7)
        draw.many(self.WINDOW)
        monkeypatch.setattr(rng, "_BLOCK", 1 << 14)
        assert draw.many(self.WINDOW).tolist() == [draw(t) for t in self.WINDOW]


@pytest.mark.parametrize("tails", [
    range(-5, 40), range(30, -31, -7), range(3, 3), range(9, 0),
    range(2**63 - 4, 2**63), range(-(2**63), -(2**63) + 3), range(2**63 - 6, 2**63 + 3),
    range(-(2**63), 2**63 - 1, 2**64 - 2), range(0, rng._BLOCK + 9),
])
def test_range_tails_equal_scalar_draws(tails):
    # int64 ranges, the empty ones, one past int64 (the fallback) and a step
    # outside int64
    draw = uniform01_stream(13, "m")
    assert draw.many(tails).tolist() == [draw(t) for t in tails] == draw.many(list(tails)).tolist()


def test_range_columns_are_arange():
    tag, columns = rng._columns(range(5, -6, -2))
    assert tag == rng._INT_TAG
    assert columns.tolist() == [[v & rng._MASK64 for v in range(5, -6, -2)]]
    assert rng._columns(range(2**63 - 1, 2**63 + 1)) is None


def test_site_draws_pass_a_statistical_gate():
    """Draws over a 256 x 256 window of Z^2, one fixed seed, N = 65,536.

    The bounds follow from independent uniforms, fixed before the test was
    first run, each at about 5 standard errors:
    - chi-square over 64 equal bins has 63 degrees of freedom, mean 63 and
      SD sqrt(126) = 11.2: chi2 <= 63 + 5 sqrt(126) = 119.1;
    - a lag-1 Pearson correlation over M pairs has SE 1/sqrt(M): |r| <= 5/sqrt(M)
      to the right, down and along the diagonal;
    - each of the 53 bits is 1 in Bin(N, 1/2) draws: |ones - N/2| <= 5 sqrt(N)/2.
    """
    side = 256
    window = [(a, b) for a in range(side) for b in range(side)]
    u = uniform01_stream(20261019, "c").many(window)
    n = len(u)

    counts = np.bincount((u * 64).astype(np.int64), minlength=64)
    chi2 = float(((counts - n / 64) ** 2).sum() / (n / 64))
    assert len(counts) == 64 and chi2 <= 63 + 5 * math.sqrt(126)

    grid = u.reshape(side, side)  # grid[a, b] is the draw at (a, b)
    for x, y in ((grid[:, :-1], grid[:, 1:]), (grid[:-1, :], grid[1:, :]),
                 (grid[:-1, :-1], grid[1:, 1:])):
        r = np.corrcoef(x.ravel(), y.ravel())[0, 1]
        assert abs(r) <= 5 / math.sqrt(x.size)

    mantissas = (u * 2.0**53).astype(np.uint64)  # exact: every draw is m / 2^53
    for bit in range(53):
        ones = int(((mantissas >> np.uint64(bit)) & np.uint64(1)).sum())
        assert abs(ones - n / 2) <= 5 * math.sqrt(n) / 2
