"""Deterministic, splittable random streams.

Every random quantity in this package is a pure function of a 64-bit root
seed plus a path of labels (strings, integers, coordinate tuples).  The
derivation is counter-based rather than stateful: stream i of a root seed
is ``mix64(seed, "traj", i)``, and the symbol at lattice site g is the draw
at tail g of ``uniform01_stream(stream_seed, "c")``.  This makes results
independent of evaluation order and of how work is sharded across processes.

``mix64`` is BLAKE2b keyed by the seed, truncated to 64 bits, over the
bytes ``_encode`` writes for the label path; those bytes are the contract.
Python's built-in ``hash`` is salted per process and must never be used.

Site draws are generator version 2 (``rng: 2`` in every summary).  A
stream's key is ``mix64(seed, *prefix)``, its one BLAKE2b.  A tail is
uint64 words: a tag (a tuple's length, or ``_INT_TAG`` for an int), then
each coordinate in two's complement.  From the key, each word is XORed
into the state, which goes through the SplitMix64 finaliser (Steele, Lea &
Flood, OOPSLA 2014); the draw is ``(h >> 11) * 2**-53``.  Any other tail (a
bool, an int outside int64, a string) is the tag ``_FALLBACK_TAG`` and the
word ``mix64(key, tail)``, so every label stays exact and distinct.
``uniform01_table(seeds, prefix, tails)`` does the same on uint64 arrays for a
column of stream keys, bit for bit; ``draw.many(tails)`` is its one-key case.
The columns of tails do not depend on the stream, so a `Tails` tuple keeps its
own, encoded on its first draw: an SMB plan's runs are encoded once for every
trajectory and stream.  Other tails are encoded afresh and nothing is kept.
A ``range`` of int64s is encoded by ``np.arange``; other tails, unless all
tuples of one length, are drawn one by one.
"""

from __future__ import annotations

import struct
from functools import cached_property
from hashlib import blake2b
from itertools import chain
from typing import Callable, Sequence

import numpy as np

VERSION = 2  # of the site generator
_MASK64 = 0xFFFFFFFFFFFFFFFF
_UNIT = 1.0 / (1 << 53)
_INT64 = range(-(1 << 63), 1 << 63)
_INT_TAG, _FALLBACK_TAG = _MASK64, _MASK64 - 1  # above any tuple length
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# numpy uint64 scalars, so array ops stay uint64 under legacy and NEP 50
# promotion alike; no arithmetic is done on scalars, which warns on overflow.
_U1, _U2 = np.uint64(_M1), np.uint64(_M2)
_S11, _S27, _S30, _S31 = map(np.uint64, (11, 27, 30, 31))
# Tails per block in `many`, so a 2^20-site window never holds all its words.
_BLOCK = 1 << 14


_INT_CHUNK = struct.Struct("<cq")  # b"i" and an int64: the chunk of a plain int
_STR_CHUNKS: dict = {}  # str label -> its chunk, for the first _STR_CHUNKS_CAP labels
_STR_CHUNKS_CAP = 1024


def _encode(parts: tuple) -> bytes:
    """The bytes of a label path.  A plain int or str takes a fast path; a
    bool, int or str subclass, an int past int64 or a tuple the general one,
    which writes the same bytes."""
    chunks = []
    for part in parts:
        kind = type(part)
        if kind is int and part in _INT64:
            chunks.append(_INT_CHUNK.pack(b"i", part))
        elif kind is str and part in _STR_CHUNKS:
            chunks.append(_STR_CHUNKS[part])
        elif isinstance(part, bool):
            chunks.append(b"b1" if part else b"b0")
        elif isinstance(part, int):
            if -(2**63) <= part < 2**63:
                chunks.append(b"i" + struct.pack("<q", part))
            else:
                raw = str(part).encode()
                chunks.append(b"I" + struct.pack("<I", len(raw)) + raw)
        elif isinstance(part, str):
            raw = part.encode()
            chunks.append(b"s" + struct.pack("<I", len(raw)) + raw)
            if kind is str and len(_STR_CHUNKS) < _STR_CHUNKS_CAP:
                _STR_CHUNKS[part] = chunks[-1]
        elif isinstance(part, tuple):
            inner = _encode(part)
            chunks.append(b"(" + struct.pack("<I", len(inner)) + inner)
        else:
            raise TypeError(f"cannot encode {type(part).__name__} into a stream path")
    return b"".join(chunks)


def mix64(seed: int, *parts) -> int:
    """Derive a 64-bit value from a seed and a label path, deterministically."""
    key = (seed & _MASK64).to_bytes(8, "little")
    digest = blake2b(_encode(parts), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed(seed: int, *parts) -> int:
    """Child seed for an independent substream."""
    return mix64(seed, *parts)


def uniform01(seed: int, *parts) -> float:
    """mix64(seed, *parts) as a float in [0, 1) with 53 random bits; not what
    a stream draws: ``uniform01_stream(seed, *p)(t)`` is another value."""
    return (mix64(seed, *parts) >> 11) * _UNIT


def _fmix(z: int) -> int:
    """The SplitMix64 finaliser of z < 2**64, on Python ints."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def _fmix_array(h: np.ndarray) -> None:
    """`_fmix` of each entry of a uint64 array, in place (products wrap mod 2**64)."""
    h ^= h >> _S30
    h *= _U1
    h ^= h >> _S27
    h *= _U2
    h ^= h >> _S31


def _columns(tails: Sequence):
    """(tag, uint64 coordinate columns) if the tails are a range of int64s or
    all tuples of n int64s, else None.  `chain` flattens tuples for numpy; a
    range is start + i * step, exact as int64 products wrap mod 2**64."""
    if type(tails) is range:
        if not (tails[0] in _INT64 and tails[-1] in _INT64 and tails.step in _INT64):
            return None
        words = np.arange(len(tails), dtype=np.int64) * tails.step + tails.start
        return _INT_TAG, words.view(np.uint64).reshape(1, len(tails))
    if set(map(type, tails)) != {tuple} or len(lengths := set(map(len, tails))) != 1:
        return None
    n = lengths.pop()
    flat = list(chain.from_iterable(tails))
    if set(map(type, flat)) - {int}:  # a bool or a nested label
        return None
    try:
        words = np.array(flat, dtype=np.int64).view(np.uint64)
    except OverflowError:  # an int outside int64
        return None
    return n, words.reshape(len(tails), n).T


def _blocks(tails: Sequence) -> list:
    """(start, stop, _columns(tails[start:stop])) for each block of _BLOCK tails."""
    return [(start, min(start + _BLOCK, len(tails)), _columns(tails[start:start + _BLOCK]))
            for start in range(0, len(tails), _BLOCK)]


class Tails(tuple):
    """A tuple of tails that keeps its `_blocks`, built on its first `many`."""

    @cached_property
    def blocks(self) -> list:
        return _blocks(self)


def uniform01_stream(seed: int, *prefix) -> Callable[[object], float]:
    """The draw function tail -> float in [0, 1) of the stream keyed
    ``mix64(seed, *prefix)``, with the batch form ``draw.many(tails)``."""
    return _stream(mix64(seed, *prefix))


def _stream(key: int) -> Callable[[object], float]:
    """The draw function of the stream keyed `key`; `many` is its row of `_table`."""
    heads: dict = {}  # tag -> the state after the tag word

    def head(tag: int) -> int:
        if tag not in heads:
            heads[tag] = _fmix(key ^ tag)
        return heads[tag]

    def draw(tail) -> float:
        if type(tail) is tuple:
            tag, words = len(tail), tail
        else:
            tag, words = _INT_TAG, (tail,)
        h = heads.get(tag) or head(tag)
        for w in words:
            if type(w) is not int or w not in _INT64:
                h = _fmix(head(_FALLBACK_TAG) ^ mix64(key, tail))
                break
            z = h ^ (w & _MASK64)  # _fmix written out: a call per word costs 10%
            z = ((z ^ (z >> 30)) * _M1) & _MASK64
            z = ((z ^ (z >> 27)) * _M2) & _MASK64
            h = z ^ (z >> 31)
        return (h >> 11) * _UNIT

    draw.many = lambda tails: _table([key], tails)[0]  # [draw(t) for t in tails]
    return draw


def uniform01_table(seeds: Sequence[int], prefix: tuple, tails: Sequence) -> np.ndarray:
    """float64 array of shape (len(seeds), len(tails)) whose row s equals
    ``uniform01_stream(seeds[s], *prefix).many(tails)``, bit for bit."""
    return _table([mix64(seed, *prefix) for seed in seeds], tails)


def _table(keys: list, tails: Sequence) -> np.ndarray:
    """The one batch kernel: row r holds the draws at `tails` of the stream keyed
    keys[r].  Per block of tails, each row's head is _fmix(key ^ tag), and the
    block's columns are absorbed into (keys x block) arrays of at most _BLOCK
    words; a block `_columns` rejects is drawn by the scalar draw, row by row."""
    out = np.empty((len(keys), len(tails)))
    for start, stop, found in tails.blocks if isinstance(tails, Tails) else _blocks(tails):
        if found is None:
            for row, key in zip(out, keys):
                row[start:stop] = list(map(_stream(key), tails[start:stop]))
            continue
        heads = np.array([_fmix(key ^ found[0]) for key in keys], dtype=np.uint64)
        rows = max(1, _BLOCK // (stop - start))
        for first in range(0, len(keys), rows):
            h = np.repeat(heads[first:first + rows, None], stop - start, axis=1)
            for words in found[1]:
                h ^= words
                _fmix_array(h)
            out[first:first + rows, start:stop] = (h >> _S11).astype(np.float64) * _UNIT
    return out
