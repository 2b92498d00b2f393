"""Partitions, cylinder cells, and exact cell measures.

A measure on Omega x X is stored as its disintegration: the base marginal
P plus a rule giving mu_omega of any cylinder cell exactly, as a Fraction.
Each model carries those rules itself (see the rds module), so the model
is the measure: every `mu` argument below is a model, and callers that
want a rule (log cell measure, conditional label law) call the model
directly.  This module keeps the cells, their enumeration and the exact
invariance check.  No densities, no empirical measures: the only
statistical error anywhere downstream is the averaging the limit
theorems themselves perform.

Cells are cylinder sets: a finite window F and one atom label per window
coordinate.  With the canonical partition (label = x at the identity) the
joined pullback partition over F has exactly these cylinders as atoms,
because all fiber maps are shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iterproduct

from .groups import FiniteSubset, GroupElement, translate
from .rds import EnumerationSizeError, SkewPoint, SymbolicConfiguration, shift

ENUMERATION_LIMIT = 10 ** 6


@dataclass(frozen=True)
class PartitionSpec:
    """Finite partition of Omega x X labelling a point by the fiber symbol
    at the identity, label(omega, x) = x_e; its atom count is the fiber
    alphabet size and its locality is the singleton {e}.
    """

    atoms: int

    def __post_init__(self) -> None:
        if self.atoms < 1:
            raise ValueError("a partition needs at least one atom")


def canonical_partition(model) -> PartitionSpec:
    return PartitionSpec(model.fiber_alphabet_size)


@dataclass(frozen=True)
class CellId:
    """One atom of the joined partition over a finite window.

    `labels` is a tuple of (coords, atom index) pairs sorted by coords;
    the window is recoverable as the set of first components.
    """

    domain: FiniteSubset
    labels: tuple


def cell_of(model, xi: PartitionSpec, F: FiniteSubset, p: SkewPoint) -> CellId:
    """The cell of the join over F containing p.

    Unfolding the join with shift fiber maps: the label contributed by
    g is the atom of the shifted point, which for the canonical partition
    is just x_g.
    """
    x = p.x
    x.require_group(F.group)
    coords = list(F.coords)
    return CellId(F, tuple(sorted(zip(coords, x.values_at(coords)))))


def measure_for(model):
    """The measure of a model is the model itself (`perfbench/` calls this)."""
    return model


def cell_measure(mu, omega: SymbolicConfiguration, cell: CellId) -> Fraction:
    """Exact mu_omega of the cylinder cell."""
    return mu.cell_measure(omega, cell.labels)


def enumerate_cells(mu, omega: SymbolicConfiguration,
                    xi: PartitionSpec, F: FiniteSubset) -> list:
    """All (cell, exact measure) pairs of the join over F."""
    count = xi.atoms ** len(F)
    if count > ENUMERATION_LIMIT:
        raise EnumerationSizeError(f"{count} cells exceed the enumeration limit")
    coords = sorted(F.coords)
    out = []
    for assignment in iterproduct(range(xi.atoms), repeat=len(coords)):
        cell = CellId(F, tuple(zip(coords, assignment)))
        out.append((cell, cell_measure(mu, omega, cell)))
    return out


def check_invariance(mu, g: GroupElement,
                     omega: SymbolicConfiguration, xi: PartitionSpec,
                     F: FiniteSubset) -> bool:
    """Exact check of the pushforward identity F_{g,omega} mu_omega = mu_{g omega}.

    For every cell C over F, mu_{g omega}(C) must equal mu_omega of the
    pullback of C under the shift by g, which is the cylinder over F g
    with the labels carried along.
    """
    shifted_omega = shift(omega, g)
    Fg = translate(F, g)
    mc = F.group.mul_coords
    for cell, forward in enumerate_cells(mu, shifted_omega, xi, F):
        pulled_labels = tuple(
            sorted((mc(coords, g.coords), label) for coords, label in cell.labels)
        )
        pulled = CellId(Fg, pulled_labels)
        if cell_measure(mu, omega, pulled) != forward:
            return False
    return True
