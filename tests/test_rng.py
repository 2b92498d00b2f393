"""Stream draws: the byte contract, the prefix-stream fast path and its
batch form."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberent.rng as rng
from fiberent.rds import MarkovModel, ProductSampler, _cumulative, _draw, exact_distribution
from fiberent.rng import (
    _encode,
    _pack_tail,
    _pack_tails,
    derive_seed,
    mix64,
    uniform01,
    uniform01_stream,
)

# mix64 on fixed label paths.  Every realised sample in the package is a
# function of these bytes, so a change here changes every shipped artifact.
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


int64 = st.integers(-(2**63), 2**63 - 1)
labels = st.one_of(
    int64,
    st.integers(-(2**70), 2**70),  # mostly outside int64: the _encode fallback
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
def test_stream_equals_uniform01(seed, prefix, tail):
    assert _pack_tail(tail) == _encode((tail,))
    assert uniform01_stream(seed, *prefix)(tail) == uniform01(seed, *prefix, tail)


@pytest.mark.parametrize("tail", [
    (), (True,), (1, False), 2**63, -(2**63) - 1, (0, 2**64), ("s",), ((1, 2), 3), "label",
    tuple(range(-4, 5)),  # longer than any precompiled packer
])
def test_stream_fallback_tails(tail):
    assert _pack_tail(tail) == _encode((tail,))
    assert uniform01_stream(99, "c")(tail) == uniform01(99, "c", tail)


@pytest.mark.parametrize("tail", [
    (0,), (5,), (-1,), (-(2**63),), (2**63 - 1,),  # the written-out 1-tuple packer
    (0, 0), (3, -7), (-(2**63), 2**63 - 1),  # the written-out 2-tuple packer
    (1, 2, 3), (-4, 0, 2**62),  # the generic tuple packer
    (True,), (False,), (1, False), (True, 2), (1, 2, True),
    (2**63,), (-(2**63) - 1,), (1, 2**64), (-(2**70), 0), (0, 1, 2**63),
    ((1,),), ((1, 2),), ((1,), 2), (1, (2, 3)),
    tuple(range(9)), tuple(range(-9, 0)),
])
def test_pack_tail_bit_for_bit(tail):
    assert _pack_tail(tail) == _encode((tail,))
    prefix = ("keep", 2, 1)
    assert uniform01_stream(2024, *prefix)(tail) == uniform01(2024, *prefix, tail)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**64 - 1),
       tail=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=2).map(tuple))
def test_short_int_tuples_pack_bit_for_bit(seed, tail):
    assert _pack_tail(tail) == _encode((tail,))
    assert uniform01_stream(seed, "keep", 1, 1)(tail) == uniform01(seed, "keep", 1, 1, tail)


@pytest.mark.parametrize("tail", [1.5, (1, 2.0), (None,)])
def test_stream_rejects_what_encode_rejects(tail):
    with pytest.raises(TypeError):
        uniform01(5, "c", tail)
    with pytest.raises(TypeError):
        uniform01_stream(5, "c")(tail)


def test_one_stream_serves_many_draws():
    draw = uniform01_stream(2024, "keep", 2, 1)
    centers = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    assert [draw(c) for c in centers] == [uniform01(2024, "keep", 2, 1, c) for c in centers]


def test_samplers_draw_the_reference_uniforms():
    dist = exact_distribution([0.2, 0.5, 0.3])
    sampler = ProductSampler(dist, 31)
    cumulative = _cumulative(dist)
    for coords in [(0, 0), (-4, 9), (2**40, -3)]:
        assert sampler.symbol_at(coords) == _draw(cumulative, uniform01(31, "c", coords))

    model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
    x = model.sample_x(model.sample_omega(8), 8)
    seed = derive_seed(8, "x")
    fwd = tuple(_cumulative(row) for row in model.transition)
    expected = [_draw(_cumulative(model.stationary), uniform01(seed, "m", 0))]
    for k in range(1, 6):
        expected.append(_draw(fwd[expected[-1]], uniform01(seed, "m", k)))
    assert [x.sampler.symbol_at((k,)) for k in range(6)] == expected


# Windows of tails: one int64 or one tuple arity throughout (the packed
# record path), with one odd tail mixed in, or any labels at all.
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
    buf, bounds = _pack_tails(window)
    packed = [_pack_tail(t) for t in window]
    assert bytes(buf) == b"".join(packed)
    assert [bytes(buf[a:b]) for a, b in zip(bounds, bounds[1:])] == packed
    draw = uniform01_stream(seed, *prefix)
    batch = draw.many(window)
    assert batch.dtype == np.float64 and len(batch) == len(window)
    assert batch.tolist() == [draw(t) for t in window]


@settings(max_examples=300)
@given(seed=st.integers(0, 2**64 - 1), prefix=prefixes, window=tail_lists)
def test_batch_draws_equal_scalar_draws(seed, prefix, window):
    _check_batch(seed, prefix, window)


@pytest.mark.parametrize("window", [
    [], [()], [(), ()], [True, 1], [1, True], [2**63, 0], [0, -(2**63) - 1],
    [(1,), (1, 2)], [(1, 2), (3, 2**64)], [tuple(range(9))] * 2, [tuple(range(8))] * 3,
    [(-(2**63), 2**63 - 1)], range(-5, 5), range(5, -5, -1),
])
def test_batch_draw_edge_windows(window):
    _check_batch(77, ("m",), window)


def test_batch_draws_work_in_chunks(monkeypatch):
    # a record chunk, a mixed chunk, then a short record chunk
    monkeypatch.setattr(rng, "_CHUNK", 4)
    window = [(1, 2), (3, 4), (5, 6), (7, 8), (9,), (True, 0), 2**70, 5, (0, 0), (-1, -1)]
    draw = uniform01_stream(3, "c")
    assert draw.many(window).tolist() == [draw(t) for t in window]
