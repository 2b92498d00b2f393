"""Random dynamical systems over symbolic spaces, with three solvable models.

The base space Omega and the fiber space X are both symbolic: maps from the
group into a finite alphabet.  Configurations over an infinite group cannot
be stored, so each one is represented lazily as a sampler plus a frame
offset.  A sampler maps a physical coordinate to a symbol: a seeded draw,
or a `FixedSampler` of explicit symbols; it is the only lookup a site read
passes through.  Windows are read whole: `values_at` makes one `symbols`
call, which draws every unread site with one `rng` batch call, and
`value_at` / `symbol_at` are the scalar twins it is tested against.

Action convention, used everywhere: the group acts by

    (g . c)_h = c_{h g}

so shifting a configuration by g multiplies its frame offset by g on the
left.  All cocycle identities below depend on this choice.

The fiber map is the shift, F_{g, omega} x = g . x, independent of omega;
it is written once, on ShiftModel, which every model extends.  The
omega-dependence lives in the fiber measures mu_omega.  Each model owns
its measure and entropy rules: exact cell factors and log cell
measures, the conditioning sites that matter, closed-form fiber and
conditional entropies, and its SMB evaluation plan.  The exact cell
measure and the conditional label law are built once, on ShiftModel,
from the exact cell factors.  Callers call these rules on the model;
nothing branches on the model's type.  Bernoulli is the random-alphabet
model with a one-symbol base, so there is one product rule and one
Markov rule.  This keeps entropies in closed form while the
disintegration is genuinely random for the mixed-alphabet model.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iterproduct
from numbers import Rational
from typing import Callable, Collection, Optional, Sequence

import numpy as np

from .groups import (
    DiscreteGroup,
    FiniteSubset,
    GroupElement,
    GroupMismatchError,
    ZdGroup,
    mul,
)
from .rng import derive_seed, uniform01_stream


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


def _read(memo: dict, coords: Sequence, draw: Callable[[list], list]) -> list:
    """memo[c] for each c in coords, after `draw` fills every unread one
    (an unread c given twice is drawn twice, to the same symbol)."""
    new = [c for c in coords if c not in memo]
    if new:
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
    """Coordinates i.i.d. from one distribution, keyed by (seed, coords)."""

    def __init__(self, dist: tuple, seed: int):
        self.cumulative = _cumulative(dist)
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
        return _read(self._memo, coords,
                     lambda new: _draw_many(np.array(self.cumulative), self._uniform.many(new)))


class ConditionalSampler:
    """Each coordinate drawn from a table row selected by another sampler.

    The row at a physical coordinate is the `governor` sampler's symbol
    there (another configuration's sampler), so the conditional structure
    is preserved under simultaneous shifts of both configurations.
    """

    def __init__(self, governor, tables: tuple, seed: int):
        self.governor = governor
        self.cumulatives = tuple(_cumulative(t) for t in tables)
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
            np.array(self.cumulatives)[self.governor.symbols(new)], self._uniform.many(new)))


class MarkovPathSampler:
    """Two-sided stationary Markov chain on Z, extended on demand.

    Position 0 is drawn from the stationary vector; the chain is extended
    rightward with the transition matrix and leftward with the reversed
    chain, so any finite window has the stationary law.  Extension order
    cannot change a symbol: each position's draw depends only on the seed,
    the position, and the previously fixed inward neighbor.
    """

    def __init__(self, transition: tuple, stationary: tuple, seed: int):
        self.fwd = tuple(_cumulative(row) for row in transition)
        self.bwd = tuple(_cumulative(row) for row in _reversed_chain(transition, stationary))
        self.start = _cumulative(stationary)
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
            positions, s = range(end + step, to + step, step), memo[end]
            for i, u in zip(positions, self._uniform.many(positions).tolist()):
                s = memo[i] = _draw(rows[s], u)
        self._hi, self._lo = hi, lo
        return [memo[k] for k in ks]


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


@dataclass(frozen=True)
class SymbolicConfiguration:
    """Lazy symbolic configuration: value(h) = sampler.symbol_at(h * offset).

    Shifting never copies symbols, it only changes the offset, so all
    shifts of one configuration share one sampler (and its memo) and stay
    mutually consistent.
    """

    group: DiscreteGroup
    sampler: object
    offset: GroupElement

    def value_at(self, coords: tuple) -> int:
        return self.sampler.symbol_at(self.group.mul_coords(coords, self.offset.coords))

    def values_at(self, coords: Sequence) -> list:
        """[value_at(c) for c in coords], read with one `sampler.symbols`."""
        if not self.offset.is_identity():
            mc, oc = self.group.mul_coords, self.offset.coords
            coords = [mc(c, oc) for c in coords]
        return self.sampler.symbols(coords)

    def require_group(self, group: DiscreteGroup) -> None:
        if group != self.group:
            raise GroupMismatchError(f"{group.tag} coordinates on a {self.group.tag} configuration")

    def value(self, g: GroupElement) -> int:
        self.require_group(g.group)
        return self.value_at(g.coords)

    def agrees_on(self, other: "SymbolicConfiguration", window: FiniteSubset) -> bool:
        self.require_group(window.group)
        other.require_group(window.group)
        return all(self.value_at(c) == other.value_at(c) for c in window.coords)


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
    return SymbolicConfiguration(group, FixedSampler(dict(pins), fill), group.identity())


def shift(config: SymbolicConfiguration, g: GroupElement) -> SymbolicConfiguration:
    """The action (g . c)_h = c_{h g}: left-multiply the frame offset."""
    config.require_group(g.group)
    return SymbolicConfiguration(config.group, config.sampler, mul(g, config.offset))


@dataclass(frozen=True)
class SkewPoint:
    """A point (omega, x) of the skew-product space."""

    omega: SymbolicConfiguration
    x: SymbolicConfiguration

    def __post_init__(self) -> None:
        if self.omega.group != self.x.group:
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


def _log_or_raise(entry: Optional[float]) -> float:
    if entry is None:
        raise ZeroMeasureError("zero-measure cell")
    return entry


def _mat_mul(a: tuple, b: tuple) -> tuple:
    k = len(a)
    return tuple(
        tuple(sum(a[i][m] * b[m][j] for m in range(k)) for j in range(k))
        for i in range(k)
    )


def _product(factors) -> Fraction:
    """The product of Fractions, multiplied as ints and reduced once."""
    num = den = 1
    for f in factors:
        num *= f.numerator
        den *= f.denominator
    return Fraction(num, den)


def _is_prefix_interval(coords: frozenset) -> bool:
    """True iff a Z^1 coordinate set is exactly {0, 1, ..., s-1}."""
    return coords == frozenset((i,) for i in range(len(coords)))


class ShiftModel:
    """What the three models share: the fiber map is the shift, the exact
    cell measure as the product of the model's exact cell factors, and the
    conditional label law built from that rule.

    Each model also carries its own measure and entropy rules.  A cell is
    given to them as `labels`, a tuple of (coords, atom index) pairs
    sorted by coords; an SMB plan is whatever `smb_plan` returns, and only
    the same model's `smb_totals` reads it.
    """

    def fiber_map(self, g: GroupElement, omega: SymbolicConfiguration,
                  x: SymbolicConfiguration) -> SymbolicConfiguration:
        return shift(x, g)

    def cell_measure(self, omega: SymbolicConfiguration, labels: tuple) -> Fraction:
        """Exact mu_omega of the cylinder cell."""
        return _product(self._cell_factors(omega, labels))

    def conditional_label_distribution(self, omega: SymbolicConfiguration, cond_labels: tuple,
                                       at: GroupElement) -> tuple:
        """Law of the symbol at `at` given the cell `cond_labels`: the exact
        cell measure of the labels that matter there, joined with each
        symbol at `at`, normalised.  A null conditioning cell raises, even
        when its zero factor lies outside the labels that matter; the test
        compares each exact factor with 0, so it never rounds."""
        if not all(self._cell_factors(omega, cond_labels)):
            raise ZeroMeasureError("conditioning cell has measure zero")
        near = self._conditioning_sites([c for c, _ in cond_labels], at.coords)
        kept = [(c, label) for c, label in cond_labels if c in near]
        weights = [self.cell_measure(omega, tuple(sorted(kept + [(at.coords, s)])))
                   for s in range(self.fiber_alphabet_size)]
        total = sum(weights)
        return tuple(w / total for w in weights)


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
        sampler = ProductSampler(self.base_p, derive_seed(stream_seed, "omega"))
        return SymbolicConfiguration(self.group, sampler, self.group.identity())

    def sample_x(self, omega: SymbolicConfiguration, stream_seed: int) -> SymbolicConfiguration:
        seed = derive_seed(stream_seed, "x")
        if len(self.base_p) == 1:
            sampler = ProductSampler(self.fiber_ps[0], seed)
        else:
            sampler = ConditionalSampler(omega.sampler, self.fiber_ps, seed)
        return SymbolicConfiguration(self.group, sampler, self.group.identity())

    def _rows_at(self, omega: SymbolicConfiguration, coords: Sequence, rows: tuple) -> list:
        """rows[omega_c] for each coordinate c: the fiber row used there."""
        if len(rows) == 1:
            return [rows[0]] * len(coords)
        return [rows[s] for s in omega.values_at(coords)]

    def _cell_factors(self, omega: SymbolicConfiguration, labels: tuple):
        """The exact probability of each label in its site's fiber row."""
        rows = self._rows_at(omega, [c for c, _ in labels], self.fiber_ps)
        return (row[label] for row, (_, label) in zip(rows, labels))

    def cell_log_measure(self, omega: SymbolicConfiguration, labels: tuple) -> float:
        """ln of cell_measure, summed from per-coordinate log tables.

        Stays finite-precision-stable at windows of thousands of
        coordinates, where the Fraction route would be exact but the
        probability itself underflows any float.
        """
        tables = self._rows_at(omega, [c for c, _ in labels], self._log_tables)
        return sum(_log_or_raise(table[label]) for table, (_, label) in zip(tables, labels))

    def _conditioning_sites(self, coords: Collection, at: tuple) -> tuple:
        """Sites are independent given omega: no other label matters."""
        return ()

    def fiber_entropy(self) -> float:
        return math.fsum(
            float(pb) * shannon_entropy(row) for pb, row in zip(self.base_p, self.fiber_ps)
        )

    def conditional_entropy(self, cond_set: FiniteSubset) -> float:
        """Sites are independent given omega, so conditioning changes nothing."""
        return self.fiber_entropy()

    def smb_plan(self, windows: Sequence[frozenset]) -> tuple:
        """A product cell's log measure is a sum over sites, so each row
        adds the coordinates its window gained and takes back those it lost:
        the plan holds every row's new coordinates in one run, where each
        row ends, and the run positions of each row's lost coordinates."""
        coords, ends, losses, prev, position = [], [], [], frozenset(), {}
        for cs in windows:
            losses.append(tuple(position[c] for c in sorted(prev - cs)))
            for c in sorted(cs - prev):
                position[c] = len(coords)
                coords.append(c)
            ends.append(len(coords))
            prev = cs
        return "product", tuple(coords), tuple(ends), tuple(losses)

    def smb_totals(self, plan: tuple, point: SkewPoint) -> list:
        _, coords, ends, losses = plan
        tables = self._rows_at(point.omega, coords, self._log_tables)
        logs = [table[s] for table, s in zip(tables, point.x.values_at(coords))]
        if None in logs:
            raise ZeroMeasureError("zero-measure cell")
        running, totals = 0.0, []
        for start, end, lost in zip((0,) + ends, ends, losses):
            running -= math.fsum(logs[start:end])
            if lost:
                running += math.fsum(logs[i] for i in lost)
            totals.append(running)
        return totals

    @cached_property
    def _log_tables(self) -> tuple:
        return tuple(_log_table(row) for row in self.fiber_ps)


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

    @property
    def group(self) -> ZdGroup:
        return ZdGroup(1)

    @cached_property
    def stationary(self) -> tuple:
        return _stationary_distribution(self.transition)

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
        sampler = MarkovPathSampler(self.transition, self.stationary, derive_seed(stream_seed, "x"))
        return SymbolicConfiguration(self.group, sampler, self.group.identity())

    def _cell_factors(self, omega: SymbolicConfiguration, labels: tuple) -> list:
        """The stationary weight of the leftmost label, then one exact gap-power
        transition per pair of neighbouring labels."""
        if not labels:
            return []
        positions = [(c[0], label) for c, label in labels]
        return [self.stationary[positions[0][1]]] + [
            self._gap_power(j - i)[a][b] for (i, a), (j, b) in zip(positions, positions[1:])
        ]

    def cell_log_measure(self, omega: SymbolicConfiguration, labels: tuple) -> float:
        """ln of cell_measure from log tables; stable where it underflows."""
        if not labels:
            return 0.0
        positions = [(c[0], label) for c, label in labels]
        total = _log_or_raise(self._log_stationary[positions[0][1]])
        for (i, a), (j, b) in zip(positions, positions[1:]):
            total += _log_or_raise(self._gap_power(j - i, log=True)[a][b])
        return total

    def _conditioning_sites(self, coords: Collection, at: tuple) -> tuple:
        """Only the nearest conditioning site on each side of `at` matters."""
        if at in coords:
            raise ValueError("conditioning set may not contain the target coordinate")
        left = max((c for c in coords if c < at), default=None)
        right = min((c for c in coords if c > at), default=None)
        return tuple(c for c in (left, right) if c is not None)

    def fiber_entropy(self) -> float:
        return math.fsum(
            float(pi_i) * shannon_entropy(row)
            for pi_i, row in zip(self.stationary, self.transition)
        )

    def conditional_entropy(self, cond_set: FiniteSubset) -> float:
        """Entropy of the bridge law at 0 between its nearest conditioning
        neighbours, averaged over their joint law; labels of weight zero
        (a transient state, an impossible pair) are skipped."""
        e = self.group.identity()
        near = self._conditioning_sites(cond_set.coords, e.coords)
        terms = []
        for labels in iterproduct(range(self.fiber_alphabet_size), repeat=len(near)):
            cell = tuple(zip(near, labels))
            weight = self.cell_measure(None, cell)
            if weight:
                dist = self.conditional_label_distribution(None, cell, e)
                terms.append(float(weight) * shannon_entropy(dist))
        return math.fsum(terms)

    def smb_plan(self, windows: Sequence[frozenset]) -> tuple:
        """Prefix intervals {0..s-1} grow by one transition per new site, read
        as one path over the largest; any other windows are evaluated whole."""
        if all(_is_prefix_interval(cs) for cs in windows):
            sites = tuple(sorted(max(windows, key=len)))
            return "markov-interval", tuple(len(cs) for cs in windows), sites
        return "markov-general", tuple(tuple(sorted(cs)) for cs in windows)

    def smb_totals(self, plan: tuple, point: SkewPoint) -> list:
        mode, rows, *sites = plan
        x = point.x
        if mode == "markov-general":
            return [
                -self.cell_log_measure(point.omega, tuple(zip(coords, x.values_at(coords))))
                for coords in rows
            ]
        step = self._gap_power(1, log=True)
        path = x.values_at(sites[0])
        running = -_log_or_raise(self._log_stationary[path[0]])
        upto, totals = 1, []
        for size in rows:
            while upto < size:
                running -= _log_or_raise(step[path[upto - 1]][path[upto]])
                upto += 1
            totals.append(running)
        return totals


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
