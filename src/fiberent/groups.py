"""Exact arithmetic for two discrete amenable groups and their finite subsets.

Supported groups are the integer lattices Z^d and the discrete Heisenberg
group of upper-triangular integer matrices, written as coordinate triples
(a, b, c) with product

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a * b').

Elements are immutable and carry their group, so mixed-group operations
fail loudly.  A finite subset is its group plus a frozenset of coordinate
tuples, the same keys every other layer uses for sites; GroupElements
appear only at its boundary (`subset`, iteration, `in`,
`sorted_elements`).  All set operations are exact.  A set product keys
each e * f in int64 by its offset in the bounding box of E * F, which is
worked out first in Python integers, and dedupes the keys by one of three
routes: a bitmap over the box when it is small next to the pair count,
the support of an FFT convolution for large dense Z^d products, and
otherwise a sort of each chunk of keys, then of their union.  An empty
factor, or a coordinate, bound or box volume past int64 with a factor-2
margin (|value| <= 2^62), takes the Python twin, which enumerates every
pair in Python integers.  A union of products with a common factor is
taken as one product of the union, since (A_1 u ... u A_k) B = A_1 B u
... u A_k B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iterproduct
from operator import add, neg
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .rng import uniform01_stream


class GroupMismatchError(ValueError):
    """Raised when an operation mixes elements of different groups."""


@dataclass(frozen=True)
class ZdGroup:
    """The free abelian group Z^d under coordinate-wise addition."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def tag(self) -> str:
        return f"zd:{self.d}"

    @property
    def rank(self) -> int:
        return self.d

    def window_extents(self, n: int) -> tuple:
        """Box extents of the standard Folner window F_n = [0, n)^d."""
        return (n,) * self.d

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.d)

    def element(self, *coords: int) -> "GroupElement":
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        return GroupElement(self, tuple(int(c) for c in coords))

    def mul_coords(self, a: tuple, b: tuple) -> tuple:
        """a + b, written out for ranks 1 to 3: every shifted site read comes here."""
        d = self.d
        if d == 1:
            return (a[0] + b[0],)
        if d == 2:
            return (a[0] + b[0], a[1] + b[1])
        if d == 3:
            return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
        return tuple(map(add, a, b))

    def inverse_coords(self, a: tuple) -> tuple:
        """-a, written out for ranks 1 to 3 like mul_coords: inverse_set comes here."""
        d = self.d
        if d == 1:
            return (-a[0],)
        if d == 2:
            return (-a[0], -a[1])
        if d == 3:
            return (-a[0], -a[1], -a[2])
        return tuple(map(neg, a))

    def box(self, *extents: int) -> "FiniteSubset":
        """Anchored box [0, e_1) x ... x [0, e_d)."""
        if len(extents) != self.d:
            raise ValueError(f"expected {self.d} extents, got {len(extents)}")
        return FiniteSubset(self, frozenset(_iterproduct(*(range(e) for e in extents))))


@dataclass(frozen=True)
class HeisenbergGroup:
    """Discrete Heisenberg group on integer triples (a, b, c)."""

    @property
    def tag(self) -> str:
        return "heisenberg"

    @property
    def rank(self) -> int:
        return 3

    def window_extents(self, n: int) -> tuple:
        """Box extents of the standard Folner window F_n = [0, n)^2 x [0, n^2)."""
        return (n, n, n * n)

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0, 0, 0))

    def element(self, a: int, b: int, c: int) -> "GroupElement":
        return GroupElement(self, (int(a), int(b), int(c)))

    def mul_coords(self, g: tuple, h: tuple) -> tuple:
        a, b, c = g
        ap, bp, cp = h
        return (a + ap, b + bp, c + cp + a * bp)

    def inverse_coords(self, g: tuple) -> tuple:
        # Solve (a,b,c)(x,y,z) = e: x=-a, y=-b, z = a*b - c.
        a, b, c = g
        return (-a, -b, a * b - c)

    def box(self, na: int, nb: int, nc: int) -> "FiniteSubset":
        """{(a, b, c) : 0 <= a < na, 0 <= b < nb, 0 <= c < nc}."""
        return FiniteSubset(self, frozenset(_iterproduct(range(na), range(nb), range(nc))))


DiscreteGroup = Union[ZdGroup, HeisenbergGroup]


@dataclass(frozen=True)
class GroupElement:
    """An element of a concrete discrete group, stored as integer coordinates."""

    group: DiscreteGroup
    coords: tuple

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return mul(self, other)

    def inverse(self) -> "GroupElement":
        return inverse(self)

    def __repr__(self) -> str:
        return f"{self.group.tag}{self.coords}"


def require_same_group(a: DiscreteGroup, b: DiscreteGroup) -> None:
    if a is not b and a != b:  # identity first: groups are values, usually shared
        raise GroupMismatchError(f"group mismatch: {a.tag} vs {b.tag}")


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product g * h."""
    require_same_group(g.group, h.group)
    return GroupElement(g.group, g.group.mul_coords(g.coords, h.coords))


def inverse(g: GroupElement) -> GroupElement:
    """Group inverse, so mul(g, inverse(g)) is the identity."""
    return GroupElement(g.group, g.group.inverse_coords(g.coords))


@dataclass(frozen=True)
class FiniteSubset:
    """A finite set of elements of one group, held as coordinate tuples."""

    group: DiscreteGroup
    coords: frozenset

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[GroupElement]:
        return (GroupElement(self.group, c) for c in self.coords)

    def __contains__(self, g: GroupElement) -> bool:
        return (g.group is self.group or g.group == self.group) and g.coords in self.coords

    def is_subset(self, other: "FiniteSubset") -> bool:
        require_same_group(self.group, other.group)
        return self.coords <= other.coords

    def sorted_elements(self) -> list:
        """Elements in lexicographic coordinate order (the canonical scan order)."""
        return [GroupElement(self.group, c) for c in sorted(self.coords)]

    def __repr__(self) -> str:
        return f"FiniteSubset({self.group.tag}, n={len(self.coords)})"


def subset(group: DiscreteGroup, elements: Iterable[GroupElement]) -> FiniteSubset:
    """The subset of `group` holding `elements`, each checked to be of `group`."""
    coords = set()
    for g in elements:
        require_same_group(g.group, group)
        coords.add(g.coords)
    return FiniteSubset(group, frozenset(coords))


def subset_from_coords(group: DiscreteGroup, coords: Iterable[tuple]) -> FiniteSubset:
    return FiniteSubset(group, frozenset(map(tuple, coords)))


def union_of(sets: Iterable[FiniteSubset]) -> FiniteSubset:
    """The union of one or more subsets of one group."""
    first, *rest = sets
    for S in rest:
        require_same_group(first.group, S.group)
    return FiniteSubset(first.group, first.coords.union(*(S.coords for S in rest)))


def translate(F: FiniteSubset, a: GroupElement) -> FiniteSubset:
    """Right translate {f * a : f in F}; cardinality is preserved."""
    require_same_group(F.group, a.group)
    mc = F.group.mul_coords
    ac = a.coords
    return FiniteSubset(F.group, frozenset(mc(f, ac) for f in F.coords))


def inverse_set(F: FiniteSubset) -> FiniteSubset:
    """Elementwise inverse {f^-1 : f in F}."""
    return FiniteSubset(F.group, frozenset(map(F.group.inverse_coords, F.coords)))


# Above this many coordinate pairs, dense Z^d set products switch to the
# FFT-convolution backend (support of the convolution of indicator arrays).
_FFT_PAIR_THRESHOLD = 2_000_000
# Products are keyed in int64 only while every key, coordinate and bound
# stays within this magnitude, so no intermediate sum can wrap.
_INT64_MARGIN = 2 ** 62
# At most about this many pairs are keyed at once, so peak memory is flat.
_CHUNK_PAIRS = 1 << 20
# A bitmap over the box marks keys when the box is at most
# _BITMAP_PAIRS_FACTOR times the pair count and at most _BITMAP_MAX cells;
# sparser products sort their keys.  At 2^20 pairs on Z (2-core x86_64,
# numpy 2.4) the bitmap took 4-15 ms up to 8x and 30-48 ms at 16x and 32x,
# the sort 20-33 ms at every ratio.  Factor 4 stays: the bitmap holds a
# byte per box cell whatever the pair count, no benchmark part reaches the
# sort route, and no test's sparse product has more than 7,200 pairs.
_BITMAP_PAIRS_FACTOR = 4
_BITMAP_MAX = 1 << 26


class _Plan(NamedTuple):
    """E and F as int64 coordinate rows, plus the bounding box of E * F.

    A product e * f is keyed by its row-major offset in the box
    [lo, lo + shape).  In the Heisenberg group the c coordinate of e * f
    carries the twist a_e * b'_f, whose least value over E x F is
    cross_lo (a corner product, since the twist is bilinear).
    """

    group: DiscreteGroup
    ea: np.ndarray
    fa: np.ndarray
    lo: tuple
    shape: tuple
    cross_lo: int

    @property
    def pairs(self) -> int:
        return len(self.ea) * len(self.fa)

    @property
    def volume(self) -> int:
        return math.prod(self.shape)

    @property
    def fft(self) -> bool:
        """Large dense Z^d products take the FFT route."""
        return (
            isinstance(self.group, ZdGroup)
            and self.pairs > _FFT_PAIR_THRESHOLD
            and self.volume <= self.pairs
        )


def _plan(E: FiniteSubset, F: FiniteSubset) -> Optional[_Plan]:
    """The keying plan for E * F, or None for the Python twin: when a factor
    is empty or int64 cannot hold the product safely."""
    require_same_group(E.group, F.group)
    if not E.coords or not F.coords:
        return None
    try:
        ea = np.array(list(E.coords), dtype=np.int64)
        fa = np.array(list(F.coords), dtype=np.int64)
    except OverflowError:
        return None
    elo, ehi = ea.min(axis=0).tolist(), ea.max(axis=0).tolist()
    flo, fhi = fa.min(axis=0).tolist(), fa.max(axis=0).tolist()
    lo = [x + y for x, y in zip(elo, flo)]
    hi = [x + y for x, y in zip(ehi, fhi)]
    corners = [0]
    if isinstance(E.group, HeisenbergGroup):
        corners = [a * b for a in (elo[0], ehi[0]) for b in (flo[1], fhi[1])]
        lo[2] += min(corners)
        hi[2] += max(corners)
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    if math.prod(shape) > _INT64_MARGIN or any(
        abs(v) > _INT64_MARGIN for v in (*lo, *hi, *corners)
    ):
        return None
    return _Plan(E.group, ea, fa, tuple(lo), shape, min(corners))


def _key_chunks(plan: _Plan) -> Iterator[np.ndarray]:
    """Keys of all products e * f, a block of E rows at a time."""
    strides = np.array(
        [math.prod(plan.shape[i + 1:]) for i in range(len(plan.shape))], dtype=np.int64
    )
    ke = (plan.ea - plan.ea.min(axis=0)) @ strides
    kf = (plan.fa - plan.fa.min(axis=0)) @ strides
    heisenberg = isinstance(plan.group, HeisenbergGroup)
    rows = max(1, _CHUNK_PAIRS // len(kf))
    for i in range(0, len(ke), rows):
        keys = np.add.outer(ke[i:i + rows], kf)
        if heisenberg:
            # c is the last coordinate, so its stride is 1.
            twist = np.multiply.outer(plan.ea[i:i + rows, 0], plan.fa[:, 1])
            twist -= plan.cross_lo
            keys += twist
        yield keys.ravel()


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Each key of a fresh, non-empty array once, in order; sorts it in place."""
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _enumerated_keys(plan: _Plan) -> np.ndarray:
    """Sorted distinct keys of E * F from all pairs."""
    if plan.volume <= min(_BITMAP_PAIRS_FACTOR * plan.pairs, _BITMAP_MAX):
        seen = np.zeros(plan.volume, dtype=bool)
        for keys in _key_chunks(plan):
            seen[keys] = True
        return np.flatnonzero(seen)
    return _sorted_distinct(np.concatenate([_sorted_distinct(k) for k in _key_chunks(plan)]))


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, a length pocketfft transforms fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def fftconvolve(in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays of equal rank, by FFT."""
    axes = tuple(range(in1.ndim))
    shape = [a + b - 1 for a, b in zip(in1.shape, in2.shape)]
    fshape = [_fast_len(n) for n in shape]
    spectrum = np.fft.rfftn(in1, fshape, axes=axes)
    spectrum *= np.fft.rfftn(in2, fshape, axes=axes)
    full = np.fft.irfftn(spectrum, fshape, axes=axes)
    return full[tuple(slice(0, n) for n in shape)]


def _indicator(rows: np.ndarray) -> np.ndarray:
    """0/1 array over the bounding box of a Z^d point set."""
    offsets = rows - rows.min(axis=0)
    ind = np.zeros(tuple((offsets.max(axis=0) + 1).tolist()), dtype=np.float64)
    ind[tuple(offsets.T)] = 1.0
    return ind


def _fft_keys(plan: _Plan) -> np.ndarray:
    """Sorted keys of a Z^d product as the support of the pair counts.

    The convolution of the indicator arrays of E and F counts the pairs
    behind each point of E + F, on exactly the box that keys index.  It is
    trusted only if every entry is within 1/4 of a non-negative integer
    and the counts add up to |E| |F|; otherwise the pairs are enumerated.
    """
    conv = fftconvolve(_indicator(plan.ea), _indicator(plan.fa))
    counts = np.rint(conv)
    if (
        np.abs(conv - counts).max() > 0.25
        or counts.min() < 0
        or counts.sum() != plan.pairs
    ):
        return _enumerated_keys(plan)
    return np.flatnonzero(counts)


def _decode(plan: _Plan, keys: np.ndarray) -> FiniteSubset:
    coords = np.stack(np.unravel_index(keys, plan.shape), axis=1)
    coords += np.array(plan.lo, dtype=np.int64)
    return FiniteSubset(plan.group, frozenset(map(tuple, coords.tolist())))


def product_set(E: FiniteSubset, F: FiniteSubset) -> FiniteSubset:
    """Exact set product {e * f : e in E, f in F}, deduplicated by the
    route its plan selects (see the module docstring)."""
    plan = _plan(E, F)
    if plan is None:
        return _product_set_naive(E, F)
    if plan.fft:
        return _zd_product_fft(E, F, plan)
    return _decode(plan, _enumerated_keys(plan))


def _product_set_naive(E: FiniteSubset, F: FiniteSubset) -> FiniteSubset:
    """Product set by Python enumeration of every pair; the exact reference."""
    mc = E.group.mul_coords
    return FiniteSubset(E.group, frozenset(mc(e, f) for e in E.coords for f in F.coords))


def _zd_product_fft(E: FiniteSubset, F: FiniteSubset, plan: _Plan) -> FiniteSubset:
    """The Z^d FFT route of product_set, on the keying plan of E * F."""
    return _decode(plan, _fft_keys(plan))


def product_set_size(E: FiniteSubset, F: FiniteSubset) -> int:
    """|EF| without building EF's elements; the keys are only counted."""
    plan = _plan(E, F)
    if plan is None:
        return len(_product_set_naive(E, F))
    return len(_fft_keys(plan) if plan.fft else _enumerated_keys(plan))


def symmetric_difference_size(A: FiniteSubset, B: FiniteSubset) -> int:
    """|A symmetric-difference B|, exactly."""
    require_same_group(A.group, B.group)
    return len(A.coords ^ B.coords)


def random_element(group: DiscreteGroup, radius: int, seed: int, *path) -> GroupElement:
    """Seeded element with coordinates uniform in [-radius, radius], radius >= 0:
    coordinate i is draw u = m / 2^53 of one stream, taken to (m n) >> 53."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    n, draw = 2 * radius + 1, uniform01_stream(seed, "coord", *path)
    coords = tuple((int(draw(i) * 2.0 ** 53) * n >> 53) - radius for i in range(group.rank))
    return GroupElement(group, coords)
