"""Deterministic, splittable random streams.

Every random quantity in this package is a pure function of a 64-bit root
seed plus a path of labels (strings, integers, coordinate tuples).  The
derivation is counter-based rather than stateful: stream i of a root seed
is ``mix64(seed, "traj", i)``, and the symbol at lattice site g is drawn
from ``uniform01(stream_seed, "c", g)``.  This makes results independent
of evaluation order and of how work is sharded across processes.

The mixing function is BLAKE2b with the seed as key, truncated to 64 bits,
over the bytes ``_encode`` writes for the label path; those bytes are the
contract.  Python's built-in ``hash`` is salted per process and must never
be used for this purpose.

BLAKE2b hashes as a stream, so a sampler hashes seed || prefix once per
stream (``uniform01_stream``) and each draw feeds only its tail.  The
draws equal ``uniform01(seed, *prefix, tail)`` bit for bit; ``mix64`` and
``uniform01`` stay the reference they are tested against.  A window of
draws is one ``draw.many(tails)``: it hashes the same bytes, packed for all
tails at once, and equals ``[draw(t) for t in tails]`` bit for bit.
"""

from __future__ import annotations

import struct
from hashlib import blake2b
from itertools import accumulate, chain
from typing import Callable, Sequence

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_UNIT = 1.0 / (1 << 53)
# Packers of the bytes _encode writes for one tail: b"i" and an int64, or
# b"(", the length of the inner bytes, then b"i" and an int64 per part.
_INT_TAIL = struct.Struct("<Bq").pack
_TUPLE_TAILS = tuple(struct.Struct("<BI" + "Bq" * n).pack for n in range(9))
_PACK_1, _PACK_2 = _TUPLE_TAILS[1:3]
# Tails per batch in `many`, so a 2^20-site window never holds all its digests.
_CHUNK = 1 << 14


def _encode(parts: tuple) -> bytes:
    chunks = []
    for part in parts:
        if isinstance(part, bool):
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
    """Uniform float in [0, 1) with 53 random bits."""
    return (mix64(seed, *parts) >> 11) * (1.0 / (1 << 53))


def uniform01_stream(seed: int, *prefix) -> Callable[[object], float]:
    """The draw function tail -> uniform01(seed, *prefix, tail), bit for bit.

    The keyed hasher takes ``_encode(prefix)`` once; each draw copies it
    and feeds only the packed tail.  A hasher cannot be pickled, so a draw
    function stays in the process that made it.
    """
    copy = blake2b(_encode(prefix), key=(seed & _MASK64).to_bytes(8, "little"), digest_size=8).copy

    def draw(tail) -> float:
        h = copy()
        h.update(_pack_tail(tail))
        return (int.from_bytes(h.digest(), "little") >> 11) * _UNIT

    def many(tails: Sequence) -> np.ndarray:
        """float64 array equal to [draw(t) for t in tails], bit for bit."""
        out = np.empty(len(tails))
        for start in range(0, len(tails), _CHUNK):
            buf, bounds = _pack_tails(tails[start:start + _CHUNK])
            view, digests = memoryview(buf), bytearray()
            for a, b in zip(bounds, bounds[1:]):
                h = copy()
                h.update(view[a:b])
                digests += h.digest()
            out[start:start + len(bounds) - 1] = np.frombuffer(digests, "<u8") >> 11
        return out * _UNIT

    draw.many = many
    return draw


def _pack_tail(tail) -> bytes:
    """``_encode((tail,))``, packed by one precompiled Struct when the tail
    is an int64 or a tuple of up to 8 int64s; any other tail (bools,
    non-ints, ints outside int64, longer tuples) goes through ``_encode``.
    1- and 2-tuples, the cover centers of Z and Z^2, have their Struct
    calls written out."""
    try:
        if type(tail) is int:
            return _INT_TAIL(0x69, tail)
        if type(tail) is tuple:
            n = len(tail)
            if n == 1:
                (a,) = tail
                if type(a) is int:
                    return _PACK_1(0x28, 9, 0x69, a)
            elif n == 2:
                a, b = tail
                if type(a) is int and type(b) is int:
                    return _PACK_2(0x28, 18, 0x69, a, 0x69, b)
            elif n < len(_TUPLE_TAILS):
                args = [0x28, 9 * n]
                for part in tail:
                    if type(part) is not int:
                        break
                    args += 0x69, part
                else:
                    return _TUPLE_TAILS[n](*args)
    except struct.error:  # an int outside int64
        pass
    return _encode((tail,))


def _pack_tails(tails: Sequence) -> tuple:
    """(buf, bounds): buf is b"".join(map(_pack_tail, tails)), and tail i
    owns buf[bounds[i]:bounds[i + 1]].  When every tail is an int64, or every
    tail a tuple of n int64s with 0 < n <= 8, the Struct for one tail writes
    the constant bytes of equal records and numpy writes every int64 through
    one strided view; otherwise each tail goes through _pack_tail."""
    kinds = set(map(type, tails))
    if kinds == {int}:
        arity, flat = 0, tails
    elif kinds == {tuple} and len(arities := set(map(len, tails))) == 1:
        arity, flat = arities.pop(), list(chain.from_iterable(tails))
    else:
        arity = flat = None
    if flat and arity < len(_TUPLE_TAILS) and set(map(type, flat)) == {int}:
        try:
            values = np.array(flat, dtype=np.int64).reshape(len(tails), -1)
        except OverflowError:  # an int outside int64
            pass
        else:
            template, first = ((_TUPLE_TAILS[arity](0x28, 9 * arity, *(0x69, 0) * arity), 6)
                               if arity else (_INT_TAIL(0x69, 0), 1))
            buf = bytearray(template) * len(tails)
            np.ndarray(values.shape, "<i8", buf, first, (len(template), 9))[...] = values
            return buf, range(0, len(buf) + 1, len(template))
    packed = [_pack_tail(t) for t in tails]
    return b"".join(packed), list(accumulate(map(len, packed), initial=0))
