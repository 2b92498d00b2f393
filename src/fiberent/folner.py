"""Folner sequences for Z^d and the Heisenberg group, with exact diagnostics.

A Folner sequence here is a concrete finite list F_1, ..., F_N of finite
subsets of one group; validate_sequence checks that it is nested and that
F_1 holds the identity, and reports the tempered constant of every F_n of
a nested sequence.  The window is defined on the group:
F_n = group.box(*group.window_extents(n)) is [0, n)^d on Z^d and
{(a, b, c) : 0 <= a, b < n, 0 <= c < n^2} on the Heisenberg group (the
central direction must grow quadratically for the defect to vanish).
`window_folner` builds it over any increasing side schedule.

Everything measurable about a sequence is an exact cardinality ratio:
the defect |KF delta F| / |F| and the tempered (Shulman) constant
|union_{k<n} F_k^{-1} F_n| / |F_n| are returned as Fractions.  The union
in the tempered constant is one set product, (union_{k<n} F_k)^{-1} F_n,
so the ratio is exact for any sequence, nested or not; a sequence knows
once whether it is nested, and then reads that union as F_{n-1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .groups import (
    DiscreteGroup,
    FiniteSubset,
    HeisenbergGroup,
    ZdGroup,
    inverse_set,
    product_set,
    product_set_size,
    require_same_group,
    symmetric_difference_size,
    union_of,
)


@dataclass(frozen=True)
class FolnerSequence:
    """Ordered list of finite subsets F_1, ..., F_N of one group."""

    group: DiscreteGroup
    sets: tuple

    def __post_init__(self) -> None:
        if not self.sets:
            raise ValueError("a Folner sequence needs at least one set")
        for F in self.sets:
            require_same_group(F.group, self.group)
            if not F.coords:
                raise ValueError("every set F_n must be non-empty")

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    @functools.cached_property
    def nested(self) -> bool:
        """Whether F_1 <= F_2 <= ... <= F_N, computed once."""
        return all(a.is_subset(b) for a, b in zip(self.sets, self.sets[1:]))

    def set(self, n: int) -> FiniteSubset:
        """F_n, 1-indexed as in the usual notation."""
        if not 1 <= n <= len(self.sets):
            raise IndexError(f"index {n} outside 1..{len(self.sets)}")
        return self.sets[n - 1]


def window_folner(group: DiscreteGroup, sides) -> FolnerSequence:
    """The group's standard windows F_s over an increasing side schedule.

    Subsampling the windows (e.g. dyadic sides) keeps nesting and identity
    membership while letting experiments reach large |F| in few steps.
    """
    sides = list(sides)
    if not sides or any(s < 1 for s in sides) or any(a >= b for a, b in zip(sides, sides[1:])):
        raise ValueError("sides must be non-empty, positive and strictly increasing")
    return FolnerSequence(group, tuple(group.box(*group.window_extents(s)) for s in sides))


def box_folner(d: int, n_max: int) -> FolnerSequence:
    """F_n = [0, n)^d for n = 1..n_max, so |F_n| = n^d."""
    return window_folner(ZdGroup(d), range(1, n_max + 1))


def box_folner_sizes(d: int, sides: list) -> FolnerSequence:
    """Boxes [0, s)^d over an increasing side schedule."""
    return window_folner(ZdGroup(d), sides)


def heisenberg_folner(n_max: int) -> FolnerSequence:
    """F_n = {(a,b,c) : 0 <= a,b < n, 0 <= c < n^2}, so |F_n| = n^4."""
    return window_folner(HeisenbergGroup(), range(1, n_max + 1))


def folner_defect(K: FiniteSubset, F: FiniteSubset) -> Fraction:
    """Exact defect |KF delta F| / |F|."""
    if len(F) == 0:
        raise ValueError("F must be non-empty")
    KF = product_set(K, F)
    return Fraction(symmetric_difference_size(KF, F), len(F))


def tempered_constant(seq: FolnerSequence, n: int) -> Fraction:
    """Exact Shulman ratio |union_{k<n} F_k^{-1} F_n| / |F_n|.

    The union of products is the one product (F_1 u ... u F_{n-1})^{-1} F_n;
    for a nested sequence that union is F_{n-1}, which is read as it is.
    """
    if not 2 <= n <= len(seq.sets):
        raise ValueError(f"n must be in 2..{len(seq.sets)}")
    Fn = seq.set(n)
    union = seq.set(n - 1) if seq.nested else union_of(seq.sets[:n - 1])
    return Fraction(product_set_size(inverse_set(union), Fn), len(Fn))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a Folner sequence.

    `size_ok` gates on |F_n| >= n, which every box sequence meets; the
    strict bound |F_n| > n fails for [0,n) in Z^1, so strictness is
    reported separately in `size_strict` rather than failing the sequence.
    `tempered` holds the tempered constants for n = 2..N, and is empty
    when the sequence is not nested; `sizes` holds |F_1|, ..., |F_N|.
    """

    identity_ok: bool
    nested_ok: bool
    size_ok: bool
    size_strict: bool
    tempered: tuple
    sizes: tuple

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.nested_ok and self.size_ok

    @property
    def max_tempered(self) -> Optional[Fraction]:
        return max(self.tempered, default=None)


def validate_sequence(sets: Iterable[FiniteSubset]) -> ValidationReport:
    """Check identity membership, nesting, size growth, and temperedness of
    F_1, F_2, ... read once from any iterable (a FolnerSequence too), holding
    F_{n-1} and F_n only: while nested, the union in tempered_constant is F_{n-1}."""
    sizes, tempered, nested_ok, identity_ok = [], [], True, False
    for F in sets:
        if not sizes:
            identity_ok = F.group.identity() in F
        elif nested_ok := nested_ok and prev.is_subset(F):
            tempered.append(Fraction(product_set_size(inverse_set(prev), F), len(F)))
        sizes.append(len(prev := F))
    return ValidationReport(identity_ok, nested_ok, all(s >= n for n, s in enumerate(sizes, 1)),
                            all(s > n for n, s in enumerate(sizes, 1)),
                            tuple(tempered) if nested_ok else (), tuple(sizes))
