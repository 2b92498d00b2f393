"""Random dynamical systems over symbolic spaces, with three solvable models.

The base space Omega and the fiber space X are both symbolic: maps from the
group into a finite alphabet.  A configuration is a sampler, which maps a
physical coordinate to a symbol (a seeded draw, or a `FixedSampler`), plus
a frame offset, a coordinate tuple like every site key; GroupElements appear
only at the `shift`, `skew` and `value` boundary, which checks their group.
Windows are read whole: `values_at` makes one `symbols` call, which draws
the unread sites in one `rng` batch, or one by one if fewer than
`_BATCH_MIN` are unread, and `value_at` / `symbol_at` are the scalar twins
it is tested against.  A cocycle check (`agrees_on`) reads both sides so,
in blocks of `rng._BLOCK` sites.  A window with no drawn site reaches `rng`
as the caller's own sequence, so an SMB plan's tuple is encoded once.
The samplers' cumulative tables are built once per model (`_sampler_tables`),
not per sampled point.

Action convention, used everywhere: the group acts by

    (g . c)_h = c_{h g}

so shifting a configuration by g multiplies its frame offset by g on the
left.  All cocycle identities below depend on this choice.

The fiber map is the shift, F_{g, omega} x = g . x, independent of omega;
it is written once, on ShiftModel, which every model extends, and the
omega-dependence lives in the fiber measures mu_omega.  A model writes one
cell factor rule, read exact (Fractions) or in logs, one rule saying when a
window's factors extend its predecessor's, its samplers and its closed-form
entropies.  ShiftModel builds the exact and log cell measures, the
conditional measure, the label law (that measure once per symbol) and the
SMB plan from those rules, so nothing branches on the model's type.
Bernoulli is the random-alphabet model with a one-symbol base: one product
and one Markov rule keep entropies closed-form, with a genuinely random
disintegration for the mixed-alphabet model.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, product as iterproduct
from numbers import Rational
from typing import Callable, Sequence

import numpy as np

from .groups import (
    DiscreteGroup,
    FiniteSubset,
    GroupElement,
    GroupMismatchError,
    ZdGroup,
    mul,
)
from .rng import _BLOCK, derive_seed, uniform01_stream


def exact_distribution(values: Sequence) -> tuple:
    """Convert to a tuple of Fractions summing to exactly 1.

    Float inputs are read via their shortest decimal repr, so 0.7 means
    7/10.  A total within 1e-12 of 1 is renormalized exactly; anything
    further off is rejected.
    """
    fracs = []
    for v in values:
        if isinstance(v, Rational):
            fr = Fraction(v)
        elif isinstance(v, float):
            fr = Fraction(repr(v))
        else:
            fr = Fraction(str(v))
        if fr < 0:
            raise ValueError(f"negative probability {v}")
        fracs.append(fr)
    total = sum(fracs, Fraction(0))
    if total == 0:
        raise ValueError("distribution sums to zero")
    if abs(float(total) - 1.0) > 1e-12:
        raise ValueError(f"distribution sums to {float(total)}, not 1")
    if total != 1:
        fracs = [f / total for f in fracs]
    return tuple(fracs)


def _cumulative(dist: tuple) -> tuple:
    acc, out = 0.0, []
    for p in dist:
        acc += float(p)
        out.append(acc)
    return tuple(out)


def _draw(cumulative: tuple, u: float) -> int:
    return min(bisect.bisect_right(cumulative, u), len(cumulative) - 1)


def _draw_many(cumulatives: np.ndarray, u: np.ndarray) -> list:
    """_draw of u[i] against row i of `cumulatives`, or its one row: bisect_right
    counts the entries <= u in a nondecreasing row."""
    return np.minimum((cumulatives <= u[:, None]).sum(axis=1), cumulatives.shape[-1] - 1).tolist()


def _walk(rows: np.ndarray, s: int, u: np.ndarray) -> list:
    """States s_1..s_n of the walk s_i = _draw(rows[s_(i-1)], u[i-1]) from s_0 = s.

    Step i maps each of the k states t to f_i(t) = min(#{rows[t] <= u_i}, k - 1),
    the same float compares as `_draw`.  A Hillis-Steele prefix scan composes
    the maps in log2(n) rounds, leaving f_i o ... o f_1 in row i, so s_i is
    that row's entry at s."""
    maps = np.minimum((rows <= u[:, None, None]).sum(axis=2), len(rows) - 1)
    d = 1
    while d < len(maps):
        maps[d:] = np.take_along_axis(maps[d:], maps[:-d], axis=1)
        d *= 2
    return maps[:, s].tolist()


# Fewer unread sites than this are drawn one by one, more in one `rng` batch.
# Reads of n unread 3-tuple sites by fresh samplers (2-core x86-64 host,
# best of 7) broke even at n = 12 (product: 42 us batch, 45 us scalar),
# 12-16 (conditional) and 48 (Markov extension: 124 us, 127 us); at the
# 81-site Heisenberg window a product batch took 91 us against 406 us.
_BATCH_MIN = 24


def _read(memo: dict, coords: Sequence, draw: Callable[[Sequence], list],
          draw_one: Callable[[tuple], int]) -> list:
    """memo[c] for each c in coords.  Fewer than _BATCH_MIN unread sites are
    filled by `draw_one`, more by one `draw` (an unread c given twice is
    drawn twice, to the same symbol).  A window with no memoised site goes
    to `draw` as the caller's own sequence, so an SMB plan's tuple stays the
    one `rng` has encoded."""
    try:
        return [memo[c] for c in coords]
    except KeyError:
        pass
    new = [c for c in coords if c not in memo]
    if len(new) < _BATCH_MIN:
        for c in new:
            draw_one(c)
    elif len(new) == len(coords):
        symbols = draw(coords)
        memo.update(zip(coords, symbols))
        return symbols
    else:
        memo.update(zip(new, draw(new)))
    return [memo[c] for c in coords]


class FixedSampler:
    """Explicit symbols: `pins` maps coordinates to symbols, `fill` elsewhere."""

    def __init__(self, pins: dict, fill: int):
        self.pins = pins
        self.fill = fill

    def symbol_at(self, coords: tuple) -> int:
        return self.pins.get(coords, self.fill)

    def symbols(self, coords: Sequence) -> list:
        return [self.pins.get(c, self.fill) for c in coords]


class ProductSampler:
    """Coordinates i.i.d. from one distribution, keyed by (seed, coords);
    `cumulative` is its `_cumulative` table, which the model builds once."""

    def __init__(self, cumulative: tuple, seed: int):
        self.cumulative = cumulative
        self._uniform = uniform01_stream(seed, "c")
        self._memo: dict = {}

    def symbol_at(self, coords: tuple) -> int:
        memo = self._memo
        s = memo.get(coords)
        if s is None:
            s = _draw(self.cumulative, self._uniform(coords))
            memo[coords] = s
        return s

    def symbols(self, coords: Sequence) -> list:
        return _read(self._memo, coords, lambda new: _draw_many(
            np.array(self.cumulative), self._uniform.many(new)), self.symbol_at)


class ConditionalSampler:
    """Each coordinate drawn from a table row selected by another sampler.

    The row at a physical coordinate is the `governor` sampler's symbol
    there (another configuration's sampler), so the conditional structure
    is preserved under simultaneous shifts of both configurations.
    `cumulatives` holds each row's `_cumulative` table.
    """

    def __init__(self, governor, cumulatives: tuple, seed: int):
        self.governor = governor
        self.cumulatives = cumulatives
        self._uniform = uniform01_stream(seed, "c")
        self._memo: dict = {}

    def symbol_at(self, coords: tuple) -> int:
        memo = self._memo
        s = memo.get(coords)
        if s is None:
            row = self.cumulatives[self.governor.symbol_at(coords)]
            s = _draw(row, self._uniform(coords))
            memo[coords] = s
        return s

    def symbols(self, coords: Sequence) -> list:
        return _read(self._memo, coords, lambda new: _draw_many(
            np.array(self.cumulatives)[self.governor.symbols(new)], self._uniform.many(new)),
            self.symbol_at)


class MarkovPathSampler:
    """Two-sided stationary Markov chain on Z, extended on demand.

    Position 0 is drawn from the stationary vector; the chain is extended
    rightward with the transition matrix and leftward with the reversed
    chain, so any finite window has the stationary law.  Extension order
    cannot change a symbol: each position's draw depends only on the seed,
    the position, and the previously fixed inward neighbor.  `tables` is
    `_chain_tables(transition, stationary)`, which the model builds once.
    """

    def __init__(self, tables: tuple, seed: int):
        self.fwd, self.bwd, self.start = tables
        self._uniform = uniform01_stream(seed, "m")
        self._memo: dict = {}
        self._lo = 0
        self._hi = 0

    def symbol_at(self, coords: tuple) -> int:
        (k,) = coords
        memo = self._memo
        if not memo:
            memo[0] = _draw(self.start, self._uniform(0))
        while self._hi < k:
            i = self._hi + 1
            memo[i] = _draw(self.fwd[memo[i - 1]], self._uniform(i))
            self._hi = i
        while self._lo > k:
            i = self._lo - 1
            memo[i] = _draw(self.bwd[memo[i + 1]], self._uniform(i))
            self._lo = i
        return memo[k]

    def symbols(self, coords: Sequence) -> list:
        ks, memo = [k for (k,) in coords], self._memo
        if not memo:
            memo[0] = _draw(self.start, self._uniform(0))
        hi, lo = max([self._hi, *ks]), min([self._lo, *ks])
        for rows, end, to, step in ((self.fwd, self._hi, hi, 1), (self.bwd, self._lo, lo, -1)):
            positions = range(end + step, to + step, step)
            if len(positions) >= _BATCH_MIN:
                u = self._uniform.many(positions)
                memo.update(zip(positions, _walk(np.array(rows), memo[end], u)))
            elif positions:
                self.symbol_at((to,))  # a short extension in scalar steps
        self._hi, self._lo = hi, lo
        return [memo[k] for k in ks]


def _chain_tables(transition: tuple, stationary: tuple) -> tuple:
    """The cumulative tables a `MarkovPathSampler` draws from: forward rows,
    reversed-chain rows and the stationary start."""
    return (tuple(_cumulative(row) for row in transition),
            tuple(_cumulative(row) for row in _reversed_chain(transition, stationary)),
            _cumulative(stationary))


def _reversed_chain(transition: tuple, stationary: tuple) -> tuple:
    """Time-reversed transition matrix Q_ij = pi_j P_ji / pi_i.

    A state with pi_i = 0 is never entered by the stationary chain; its
    row is pi, only so that every row is a distribution.
    """
    k = len(stationary)
    return tuple(
        tuple(stationary[j] * transition[j][i] / stationary[i] for j in range(k))
        if stationary[i] else stationary
        for i in range(k)
    )


# Configurations and skew points are values, compared and hashed by their
# fields, but not frozen dataclasses: those set each field through
# object.__setattr__, and a pointwise pass builds about 90,000 of them.
# Nothing assigns to a field after construction.
@dataclass(slots=True, unsafe_hash=True)
class SymbolicConfiguration:
    """Lazy symbolic configuration: value(h) = sampler.symbol_at(h * offset),
    the offset being a coordinate tuple.  Shifting only changes the offset,
    so all shifts of one configuration share one sampler and its memo."""

    group: DiscreteGroup
    sampler: object
    offset: tuple

    def value_at(self, coords: tuple) -> int:
        return self.sampler.symbol_at(self.group.mul_coords(coords, self.offset))

    def values_at(self, coords: Sequence) -> list:
        """[value_at(c) for c in coords], read with one `sampler.symbols`."""
        if any(self.offset):
            mc, oc = self.group.mul_coords, self.offset
            coords = [mc(c, oc) for c in coords]
        return self.sampler.symbols(coords)

    def require_group(self, group: DiscreteGroup) -> None:
        if group is not self.group and group != self.group:
            raise GroupMismatchError(f"{group.tag} coordinates on a {self.group.tag} configuration")

    def value(self, g: GroupElement) -> int:
        self.require_group(g.group)
        return self.value_at(g.coords)

    def agrees_on(self, other: "SymbolicConfiguration", window: FiniteSubset) -> bool:
        """Every site of the window read on both sides with `values_at`, a
        block of at most rng._BLOCK sites at a time, so a 2^20-site window
        never holds all its symbols; False at the first block that differs."""
        self.require_group(window.group)
        other.require_group(window.group)
        sites = iter(window.coords)
        while block := tuple(islice(sites, _BLOCK)):
            if self.values_at(block) != other.values_at(block):
                return False
        return True


def constant_configuration(
    group: DiscreteGroup, alphabet_size: int, symbol: int = 0
) -> SymbolicConfiguration:
    return configuration_from_pins(group, alphabet_size, {}, fill=symbol)


def configuration_from_pins(
    group: DiscreteGroup, alphabet_size: int, pins: dict, fill: int = 0
) -> SymbolicConfiguration:
    """Explicit configuration: `pins` coords -> symbol, `fill` elsewhere."""
    for where, sym in (*pins.items(), ("fill", fill)):
        if not 0 <= sym < alphabet_size:
            raise ValueError(f"symbol {sym} at {where} outside alphabet")
    return SymbolicConfiguration(group, FixedSampler(dict(pins), fill), (0,) * group.rank)


def shift(config: SymbolicConfiguration, g: GroupElement) -> SymbolicConfiguration:
    """The action (g . c)_h = c_{h g}: left-multiply the frame offset."""
    config.require_group(g.group)
    offset = config.group.mul_coords(g.coords, config.offset)
    return SymbolicConfiguration(config.group, config.sampler, offset)


@dataclass(slots=True, unsafe_hash=True)
class SkewPoint:
    """A point (omega, x) of the skew-product space."""

    omega: SymbolicConfiguration
    x: SymbolicConfiguration

    def __post_init__(self) -> None:
        if self.omega.group is not self.x.group and self.omega.group != self.x.group:
            raise GroupMismatchError("omega and x live over different groups")


def _stationary_distribution(transition: tuple) -> tuple:
    """Exact stationary vector of a rational stochastic matrix.

    Solves pi (P - I) = 0 with sum(pi) = 1 by Fraction Gaussian
    elimination on the transpose, with the last equation replaced by the
    normalization.
    """
    k = len(transition)
    rows = [[transition[j][i] - (1 if i == j else 0) for j in range(k)] for i in range(k)]
    rows[k - 1] = [Fraction(1)] * k
    rhs = [Fraction(0)] * (k - 1) + [Fraction(1)]
    for col in range(k):
        piv = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if piv is None:
            raise ValueError("transition matrix has no unique stationary vector")
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = Fraction(1) / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        rhs[col] = rhs[col] * inv
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
                rhs[r] = rhs[r] - f * rhs[col]
    return tuple(rhs)


MARKOV_GAP_CAP = 64


class ZeroMeasureError(ValueError):
    """A cell of measure zero was queried for information."""


class EnumerationSizeError(ValueError):
    """A cell enumeration or a Markov gap would exceed its configured limit."""


def shannon_entropy(dist: Sequence) -> float:
    """-sum p ln p in nats, with 0 ln 0 = 0."""
    values = [float(p) for p in dist]
    if any(v < -1e-15 for v in values):
        raise ValueError("negative probability")
    if abs(math.fsum(values) - 1.0) > 1e-12:
        raise ValueError(f"distribution sums to {math.fsum(values)}, not 1")
    return -math.fsum(v * math.log(v) for v in values if v > 0.0)


def mean_and_se(values: Sequence) -> tuple:
    """Sample mean and its standard error sqrt(s^2 / k); 0 for one value."""
    k = len(values)
    mean = math.fsum(values) / k
    if k < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
    return mean, math.sqrt(var / k)


def _log_table(dist: tuple) -> tuple:
    return tuple(math.log(p) if p > 0 else None for p in map(float, dist))


def _mat_mul(a: tuple, b: tuple) -> tuple:
    k = len(a)
    return tuple(
        tuple(sum(a[i][m] * b[m][j] for m in range(k)) for j in range(k))
        for i in range(k)
    )


_TARGET_ONCE = "the cell must hold the target coordinate exactly once"


def _split(labels: tuple) -> tuple:
    """A cell's coordinates and its symbols, as two lists."""
    return [c for c, _ in labels], [s for _, s in labels]


class ShiftModel:
    """What the three models share: the fiber map is the shift, and every
    cell rule is built here from the model's two own rules.

    A cell is `labels`, a tuple of (coords, atom index) pairs sorted by
    coords.  `_cell_factors(omega, coords, symbols, log)` gives the exact
    Fractions whose product is the cell measure, or their log-table entries
    (None for a zero).  `_extends(prev, cs)` says whether the factors of
    window `cs` continue those of `prev`, so an SMB schedule is one run.
    """

    def fiber_map(self, g: GroupElement, omega: SymbolicConfiguration,
                  x: SymbolicConfiguration) -> SymbolicConfiguration:
        return shift(x, g)

    def _product(self, omega: SymbolicConfiguration, coords: Sequence,
                 symbols: Sequence) -> tuple:
        """The cell's exact factors multiplied as ints: (numerator, denominator)."""
        num = den = 1
        for f in self._cell_factors(omega, coords, symbols):
            num *= f.numerator
            den *= f.denominator
        return num, den

    def _conditioning_product(self, omega: SymbolicConfiguration, coords: list,
                              symbols: list) -> tuple:
        """_product of a conditioning cell, which may not be null."""
        n2, d2 = self._product(omega, coords, symbols)
        if n2 == 0:
            raise ZeroMeasureError("conditioning cell has measure zero")
        return n2, d2

    def cell_measure(self, omega: SymbolicConfiguration, labels: tuple) -> Fraction:
        """Exact mu_omega of the cylinder cell."""
        return Fraction(*self._product(omega, *_split(labels)))

    def conditional_measure(self, omega: SymbolicConfiguration, labels: tuple,
                            at: tuple) -> Fraction:
        """mu_omega(cell) / mu_omega(cell without site `at`), one Fraction n1 d2 / (d1 n2)."""
        coords, symbols = _split(labels)
        if coords.count(at) != 1:
            raise ValueError(_TARGET_ONCE)
        i = coords.index(at)
        n1, d1 = self._product(omega, coords, symbols)
        n2, d2 = self._conditioning_product(omega, coords[:i] + coords[i + 1:],
                                            symbols[:i] + symbols[i + 1:])
        return Fraction(n1 * d2, d1 * n2)

    def cell_log_measure(self, omega: SymbolicConfiguration, labels: tuple) -> float:
        """ln of cell_measure, summed from log tables: stable at windows of
        thousands of sites, where the probability underflows any float."""
        try:
            return math.fsum(self._cell_factors(omega, *_split(labels), log=True))
        except TypeError:  # fsum met the None of a zero factor
            raise ZeroMeasureError("zero-measure cell") from None

    def smb_plan(self, windows: Sequence[frozenset]) -> tuple:
        """How `smb_totals` reads a schedule of windows.  If each window
        extends its predecessor, the plan is a "run": every row's new
        coordinates in one run, and where each row ends.  Otherwise each
        window is "whole"."""
        coords, ends, prev = [], [], frozenset()
        for cs in windows:
            if not self._extends(prev, cs):
                return "whole", tuple(tuple(sorted(cs)) for cs in windows)
            coords.extend(sorted(cs - prev))
            ends.append(len(coords))
            prev = cs
        return "run", tuple(coords), tuple(ends)

    def smb_totals(self, plan: tuple, point: SkewPoint) -> list:
        """-ln mu_omega of the cell of `point` over each planned window; a
        run's factors are read once, and each row is summed with fsum."""
        x = point.x
        if plan[0] == "whole":
            return [-self.cell_log_measure(point.omega, tuple(zip(cs, x.values_at(cs))))
                    for cs in plan[1]]
        _, coords, ends = plan
        logs = self._cell_factors(point.omega, coords, x.values_at(coords), log=True)
        running, totals = 0.0, []
        try:  # each site is in some row, so fsum meets the None of any zero factor
            for start, end in zip((0,) + ends, ends):
                running -= math.fsum(logs[start:end])
                totals.append(running)
        except TypeError:
            raise ZeroMeasureError("zero-measure cell") from None
        return totals

    def conditional_label_distribution(self, omega: SymbolicConfiguration, cond_labels: tuple,
                                       at: GroupElement) -> tuple:
        """Law of the symbol at `at` given the cell `cond_labels`: the conditional
        measure of each symbol there, which sum to 1 as every model's measure is
        consistent.  The conditioning cell's product is taken once, after the
        cells', and a null one raises, as in `conditional_measure`."""
        at = at.coords
        coords, symbols = _split(sorted(cond_labels))
        if at in coords:
            raise ValueError(_TARGET_ONCE)
        i = bisect.bisect(coords, at)
        with_at = coords[:i] + [at] + coords[i:]
        cells = [self._product(omega, with_at, symbols[:i] + [s] + symbols[i:])
                 for s in range(self.fiber_alphabet_size)]
        n2, d2 = self._conditioning_product(omega, coords, symbols)
        return tuple(Fraction(n1 * d2, d1 * n2) for n1, d1 in cells)


@dataclass(frozen=True)
class RandomAlphabetModel(ShiftModel):
    """Base i.i.d. from `base_p`; fiber symbol at g drawn from row omega_g.

    The fiber measure mu_omega is the product over g of fiber_ps[omega_g],
    so the disintegration genuinely depends on omega.  With a one-symbol
    base omega is constant, so it is never drawn or read per site; the
    fiber draws are keyed as in the general case, so the samples agree.
    """

    group: DiscreteGroup
    base_p: tuple
    fiber_ps: tuple

    kind = "random-alphabet"

    @staticmethod
    def create(group: DiscreteGroup, base_p: Sequence, fiber_ps: Sequence) -> "RandomAlphabetModel":
        rows = tuple(exact_distribution(row) for row in fiber_ps)
        base = exact_distribution(base_p)
        if len(rows) != len(base):
            raise ValueError("need one fiber distribution per base symbol")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("fiber distributions must share one alphabet")
        return RandomAlphabetModel(group, base, rows)

    @property
    def fiber_alphabet_size(self) -> int:
        return len(self.fiber_ps[0])

    def sample_omega(self, stream_seed: int) -> SymbolicConfiguration:
        if len(self.base_p) == 1:
            return constant_configuration(self.group, 1)
        sampler = ProductSampler(self._sampler_tables[0], derive_seed(stream_seed, "omega"))
        return SymbolicConfiguration(self.group, sampler, (0,) * self.group.rank)

    def sample_x(self, omega: SymbolicConfiguration, stream_seed: int) -> SymbolicConfiguration:
        seed, rows = derive_seed(stream_seed, "x"), self._sampler_tables[1]
        if len(self.base_p) == 1:
            sampler = ProductSampler(rows[0], seed)
        else:
            sampler = ConditionalSampler(omega.sampler, rows, seed)
        return SymbolicConfiguration(self.group, sampler, (0,) * self.group.rank)

    def _cell_factors(self, omega: SymbolicConfiguration, coords: Sequence, symbols: Sequence,
                      log: bool = False) -> list:
        """The probability of each symbol in the fiber row of omega at its
        site, or its log; a one-row model never reads omega."""
        rows = self._log_tables if log else self.fiber_ps
        if len(rows) == 1:
            return [rows[0][s] for s in symbols]
        return [rows[w][s] for w, s in zip(omega.values_at(coords), symbols)]

    def _extends(self, prev: frozenset, cs: frozenset) -> bool:
        """Sites are independent: a run goes on into any window holding `prev`."""
        return prev <= cs

    def fiber_entropy(self) -> float:
        return math.fsum(
            float(pb) * shannon_entropy(row) for pb, row in zip(self.base_p, self.fiber_ps)
        )

    def conditional_entropy(self, cond_set: FiniteSubset) -> float:
        """Sites are independent given omega, so conditioning changes nothing."""
        return self.fiber_entropy()

    @cached_property
    def _log_tables(self) -> tuple:
        return tuple(_log_table(row) for row in self.fiber_ps)

    @cached_property
    def _sampler_tables(self) -> tuple:
        """The base's and each fiber row's `_cumulative` table, built once."""
        return _cumulative(self.base_p), tuple(_cumulative(row) for row in self.fiber_ps)


class BernoulliModel(RandomAlphabetModel):
    """Trivial base; fiber measure is the i.i.d. product of `p` on A^G.

    This is the random-alphabet model with a one-symbol base, so it shares
    every rule of that model.
    """

    kind = "bernoulli"

    def __init__(self, group: DiscreteGroup, p: tuple):
        super().__init__(group, (Fraction(1),), (p,))

    @staticmethod
    def create(group: DiscreteGroup, p: Sequence) -> "BernoulliModel":
        return BernoulliModel(group, exact_distribution(p))

    @property
    def p(self) -> tuple:
        return self.fiber_ps[0]


@dataclass(frozen=True)
class MarkovModel(ShiftModel):
    """Trivial base; fiber measure is a stationary Markov chain on Z.

    Only the one-dimensional lattice supports this model: the chain's
    consistency under marginalization is a property of linear orders.
    A cell's measure is the stationary weight of its leftmost label times
    one gap-power transition per pair of neighbouring labels.
    """

    transition: tuple

    kind = "markov"

    @staticmethod
    def create(transition: Sequence) -> "MarkovModel":
        rows = tuple(exact_distribution(row) for row in transition)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("transition matrix must be square")
        return MarkovModel(rows)

    @cached_property
    def group(self) -> ZdGroup:
        """One object, so group checks pass on identity."""
        return ZdGroup(1)

    @cached_property
    def stationary(self) -> tuple:
        return _stationary_distribution(self.transition)

    @cached_property
    def _sampler_tables(self) -> tuple:
        """`_chain_tables` of the chain, built once: the reversed chain is Fractions."""
        return _chain_tables(self.transition, self.stationary)

    @cached_property
    def _log_stationary(self) -> tuple:
        return _log_table(self.stationary)

    @cached_property
    def _by_gap(self) -> dict:
        """gap -> (P^gap exact, its log table), filled on demand."""
        return {}

    def _gap_power(self, gap: int, log: bool = False) -> tuple:
        """P^gap for 1 <= gap <= MARKOV_GAP_CAP, exact or as a log table."""
        if gap < 1:
            raise ValueError("cell labels must be sorted by coordinate, without repeats")
        if gap > MARKOV_GAP_CAP:
            raise EnumerationSizeError(
                f"Markov gap {gap} exceeds the marginalization cap {MARKOV_GAP_CAP}"
            )
        if gap not in self._by_gap:
            P = self.transition
            power = _mat_mul(self._gap_power(gap - 1), P) if gap != 1 else P
            self._by_gap[gap] = power, tuple(_log_table(row) for row in power)
        return self._by_gap[gap][log]

    @property
    def fiber_alphabet_size(self) -> int:
        return len(self.transition)

    def sample_omega(self, stream_seed: int) -> SymbolicConfiguration:
        return constant_configuration(self.group, 1)

    def sample_x(self, omega: SymbolicConfiguration, stream_seed: int) -> SymbolicConfiguration:
        sampler = MarkovPathSampler(self._sampler_tables, derive_seed(stream_seed, "x"))
        return SymbolicConfiguration(self.group, sampler, (0,) * self.group.rank)

    def _cell_factors(self, omega: SymbolicConfiguration, coords: Sequence, symbols: Sequence,
                      log: bool = False) -> list:
        """The stationary weight of the leftmost symbol, then one gap-power
        transition per pair of neighbouring sites, exact or as logs."""
        if not coords:
            return []
        sites = zip(coords, symbols)
        (left,), a = next(sites)
        factors = [(self._log_stationary if log else self.stationary)[a]]
        gap = power = None
        for (k,), b in sites:
            if k - left != gap:  # look P^gap up again only when the gap changes
                gap, power = k - left, self._gap_power(k - left, log)
            factors.append(power[a][b])
            left, a = k, b
        return factors

    def _extends(self, prev: frozenset, cs: frozenset) -> bool:
        """A chain's run grows only rightwards: it keeps every site of `prev`
        and adds sites right of them ((k,) tuples; () is below every site)."""
        return prev <= cs and max(prev, default=()) < min(cs - prev, default=(math.inf,))

    def fiber_entropy(self) -> float:
        return math.fsum(
            float(pi_i) * shannon_entropy(row)
            for pi_i, row in zip(self.stationary, self.transition)
        )

    def conditional_entropy(self, cond_set: FiniteSubset) -> float:
        """Entropy of the bridge law at 0 between its nearest conditioning
        neighbours, averaged over their joint law; labels of weight zero
        (a transient state, an impossible pair) are skipped."""
        e, cond = self.group.identity(), sorted(cond_set.coords)
        if e.coords in cond_set.coords:
            raise ValueError("conditioning set may not contain the target coordinate")
        i = bisect.bisect(cond, e.coords)
        near = cond[max(i - 1, 0):i + 1]  # the nearest site on each side
        terms = []
        for labels in iterproduct(range(self.fiber_alphabet_size), repeat=len(near)):
            cell = tuple(zip(near, labels))
            weight = self.cell_measure(None, cell)
            if weight:
                dist = self.conditional_label_distribution(None, cell, e)
                terms.append(float(weight) * shannon_entropy(dist))
        return math.fsum(terms)


def skew(model, g: GroupElement, p: SkewPoint) -> SkewPoint:
    """The skew product (omega, x) -> (g . omega, F_{g, omega} x)."""
    return SkewPoint(shift(p.omega, g), model.fiber_map(g, p.omega, p.x))


def sample_point(model, seed: int, index: int) -> SkewPoint:
    """Trajectory `index` of the root seed: an independent (omega, x) pair.

    Stream derivation is part of the external contract: trajectory i uses
    the sub-seed mix64(seed, "traj", i); omega and x split that further.
    """
    stream = derive_seed(seed, "traj", index)
    omega = model.sample_omega(stream)
    return SkewPoint(omega, model.sample_x(omega, stream))


def check_cocycle(model, g1: GroupElement, g2: GroupElement, p: SkewPoint,
                  window: FiniteSubset) -> bool:
    """Exact test of F_{g2, g1.omega} o F_{g1, omega} = F_{g2 g1, omega} on a window."""
    omega1 = shift(p.omega, g1)
    lhs = model.fiber_map(g2, omega1, model.fiber_map(g1, p.omega, p.x))
    rhs = model.fiber_map(mul(g2, g1), p.omega, p.x)
    return lhs.agrees_on(rhs, window)
