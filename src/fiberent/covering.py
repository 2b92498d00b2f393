"""Quasi-tiling cover constructions and exact verifiers of their guarantees.

Two constructions are implemented over finite windows of a group:

* a deterministic greedy builder for a single-indexed family of shapes
  with center sets, which accepts a translate whenever its overlap with
  the already-covered region is at most a delta fraction of the shape;
* a randomized sampler for a double-indexed family, which retains each
  candidate center with a probability proportional to the remaining
  coverage gap and then thins exactly like the greedy builder.

Each instance builds every block S a once, as its cached `layers`; the
containment hypotheses and every run of either construction read them.
The sampler keeps q as an integer ratio num / den, so its tests against 0
and 1 are exact and its keep threshold num / den is float(q); the thinning
limit floor(delta |S|) is an integer division too.  The randomized
verifier reads its samples from any iterable, once, and tallies each
covered point at its position in F with np.bincount, so samples can be
verified as they are drawn (iter_samples) without holding them all.
iter_samples draws a layer's keep decisions for a chunk of samples as one
rng.uniform01_table, whose row equals the sample's own draw.many (one key).

The underlying covering lemmas are existence statements; these builders
realize the standard constructions and the verifiers evaluate the stated
conclusion inequalities per instance, exactly where the quantities are
exact and with 3-sigma bands where they are empirical means.  A verifier
failure on a hypothesis-passing instance is reported, never masked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .groups import FiniteSubset, inverse_set, product_set_size, require_same_group, union_of
from .rds import mean_and_se
from .rng import _BLOCK, Tails, derive_seed, uniform01_stream, uniform01_table


# Covered points per tally chunk: the verifier holds at most this many, or
# one sample's, positions and multiplicities at a time.
_TALLY_CHUNK = 1 << 16


class HypothesisError(ValueError):
    """A cover construction was asked to run on a failing instance."""


def _as_unit_fraction(value, name: str) -> Fraction:
    fr = Fraction(repr(value)) if isinstance(value, float) else Fraction(value)
    if not 0 < fr < 1:
        raise ValueError(f"{name} must lie in (0, 1), got {fr}")
    return fr


def _layer(ambient: FiniteSubset, key: tuple, shape: FiniteSubset,
           centers: FiniteSubset) -> tuple:
    """(key, |S|, blocks) for shape S and center set A: blocks holds
    (a, S a) for every a in A in lexicographic order, with S a a tuple of
    the points f a; the order of points inside a block never matters."""
    group = ambient.group
    for part in (shape, centers):
        require_same_group(part.group, group)
    mc = group.mul_coords
    offsets = tuple(shape.coords)
    blocks = tuple((a, tuple([mc(f, a) for f in offsets])) for a in sorted(centers.coords))
    return key, len(offsets), blocks


@dataclass(frozen=True)
class CoverInstance:
    """Single-indexed instance: shapes S_1..S_M, center sets A_1..A_M in F.

    Hypotheses: every translate of S_i by a center of A_i stays inside F,
    and the family grows fast enough that
    |union_{j<=i} S_j^-1 S_{i+1}| < (1+epsilon)|S_{i+1}| for every i < M.
    """

    ambient: FiniteSubset
    shapes: tuple
    centers: tuple
    delta: Fraction
    epsilon: Fraction

    @staticmethod
    def create(ambient, shapes, centers, delta, epsilon) -> "CoverInstance":
        if len(shapes) != len(centers) or not shapes:
            raise ValueError("need one center set per shape")
        return CoverInstance(
            ambient, tuple(shapes), tuple(centers),
            _as_unit_fraction(delta, "delta"), _as_unit_fraction(epsilon, "epsilon"),
        )

    @functools.cached_property
    def layers(self) -> tuple:
        """_layer of each key (i,) in increasing order, built once."""
        return tuple(_layer(self.ambient, (i,), S, A)
                     for i, (S, A) in enumerate(zip(self.shapes, self.centers), start=1))

    @functools.cached_property
    def hypotheses(self) -> "HypothesisReport":
        """check_hypotheses(self), evaluated once: instances are immutable."""
        return check_hypotheses(self)


@dataclass(frozen=True)
class RandomCoverInstance:
    """Double-indexed instance: shapes[i][j] with centers[i][j], plus the
    spreading set K, growth constant C, and coverage level alpha with
    |union_j K A_{i,j}| >= alpha |F| for every i.
    """

    ambient: FiniteSubset
    shapes: tuple
    centers: tuple
    K: FiniteSubset
    C: Fraction
    alpha: Fraction
    delta: Fraction
    epsilon: Fraction

    @staticmethod
    def create(ambient, shapes, centers, K, C, alpha, delta, epsilon) -> "RandomCoverInstance":
        if len(shapes) != len(centers) or not shapes:
            raise ValueError("need one center family per shape family")
        for srow, crow in zip(shapes, centers):
            if len(srow) != len(crow) or not srow:
                raise ValueError("ragged shape/center families must still align")
        return RandomCoverInstance(
            ambient,
            tuple(tuple(r) for r in shapes),
            tuple(tuple(r) for r in centers),
            K,
            Fraction(repr(C)) if isinstance(C, float) else Fraction(C),
            _as_unit_fraction(alpha, "alpha"),
            _as_unit_fraction(delta, "delta"),
            _as_unit_fraction(epsilon, "epsilon"),
        )

    @functools.cached_property
    def layers(self) -> tuple:
        """_layer of each key (i, j) in increasing order, built once."""
        return tuple(
            _layer(self.ambient, (i, j), S, A)
            for i, (srow, crow) in enumerate(zip(self.shapes, self.centers), start=1)
            for j, (S, A) in enumerate(zip(srow, crow), start=1)
        )

    @functools.cached_property
    def hypotheses(self) -> "HypothesisReport":
        """check_hypotheses(self), evaluated once: instances are immutable."""
        return check_hypotheses(self)

    @functools.cached_property
    def keep_tails(self) -> dict:
        """Each layer key -> its centers in block order, as one rng.Tails."""
        return {key: Tails(a for a, _ in blocks) for key, _, blocks in self.layers}


@dataclass(frozen=True)
class CheckRow:
    name: str
    lhs: Fraction
    rhs: Fraction
    ok: bool


@dataclass(frozen=True)
class HypothesisReport:
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def failures(self) -> tuple:
        return tuple(r.name for r in self.rows if not r.ok)


def check_hypotheses(inst) -> HypothesisReport:
    """Exact evaluation of every hypothesis inequality of the instance.

    A containment row passes when every center of its layer lies in F and
    so does every block built from it.  Each union of products with a
    common factor is evaluated as one product of the union:
    union_j S_j^-1 T = (union_j S_j)^-1 T and union_A K A = K (union A).
    """
    if not isinstance(inst, (CoverInstance, RandomCoverInstance)):
        raise TypeError(f"unsupported instance type {type(inst).__name__}")
    F = inst.ambient.coords
    rows = []
    for key, _, blocks in inst.layers:
        ok = all(a in F and F.issuperset(block) for a, block in blocks)
        name = "-".join(("shape", *map(str, key[:-1]), "containment", str(key[-1])))
        rows.append(CheckRow(name, Fraction(int(ok)), Fraction(1), ok))

    if isinstance(inst, CoverInstance):
        growth = Fraction(1) + inst.epsilon
        for i in range(1, len(inst.shapes)):
            lhs = Fraction(
                product_set_size(inverse_set(union_of(inst.shapes[:i])), inst.shapes[i]))
            rhs = growth * len(inst.shapes[i])
            rows.append(CheckRow(f"growth-{i}", lhs, rhs, lhs < rhs))
        return HypothesisReport(tuple(rows))

    def growth_row(name, limit, target, factor) -> CheckRow:
        shapes = union_of(S for i, row in enumerate(inst.shapes)
                          for j, S in enumerate(row) if (i, j) <= limit)
        lhs = Fraction(product_set_size(inverse_set(shapes), target))
        rhs = factor * len(target)
        return CheckRow(name, lhs, rhs, lhs <= rhs)

    rows.extend(growth_row(f"growth-within-{i + 1}-{k + 1}", (i, k), row[k + 1], inst.C)
                for i, row in enumerate(inst.shapes) for k in range(len(row) - 1))
    rows.extend(growth_row(f"growth-across-{i + 1}-{k + 1}", (i, len(inst.shapes[i]) - 1),
                           target, 1 + inst.epsilon)
                for i in range(len(inst.shapes) - 1)
                for k, target in enumerate(inst.shapes[i + 1]))
    threshold = inst.alpha * len(inst.ambient)
    for i, crow in enumerate(inst.centers, start=1):
        lhs = Fraction(product_set_size(inst.K, union_of(crow)))
        rows.append(CheckRow(f"alpha-coverage-{i}", lhs, threshold, lhs >= threshold))
    return HypothesisReport(tuple(rows))


@dataclass(frozen=True)
class CoverSolution:
    """Chosen translates plus the multiplicity of every covered point.

    picks holds (shape index, center coords) for greedy output and
    (i, j, center coords) for sampled output, all 1-based indices in the
    order the construction accepted them; multiplicity maps each covered
    point's coords to the number of accepted blocks holding it.  Its
    iteration order carries no meaning, and no verifier depends on it.
    """

    picks: tuple
    total_size: int
    multiplicity: dict

    @property
    def union_size(self) -> int:
        return len(self.multiplicity)


def _require_hypotheses(inst) -> None:
    report = inst.hypotheses
    if not report.ok:
        raise HypothesisError(f"instance fails hypotheses: {', '.join(report.failures)}")


def _thin(delta: Fraction, layers) -> CoverSolution:
    """The one thinning loop: accept a block iff its overlap with the
    already-covered region is at most delta * |shape|.

    `layers(lam)` yields (key, |shape|, blocks) per layer in scan order,
    where lam maps each covered point to its multiplicity; it is resumed
    only after the previous layer is thinned, so a layer may depend on how
    much is covered so far.  Overlaps are integers, so comparing them with
    floor(delta * |shape|), taken in integers, is exact.
    """
    lam: dict = {}
    picks = []
    total = 0
    for key, size, blocks in layers(lam):
        limit = delta.numerator * size // delta.denominator
        for center, block in blocks:
            if sum(map(lam.__contains__, block)) <= limit:
                picks.append(key + (center,))
                total += size
                for c in block:
                    lam[c] = lam.get(c, 0) + 1
    return CoverSolution(tuple(picks), total, lam)


def greedy_cover(inst: CoverInstance) -> CoverSolution:
    """Deterministic cover: shapes from largest index down, centers in
    lexicographic order, delta-fraction overlap acceptance.

    By construction every accepted block contributes at least
    (1 - delta) |shape| new points, so (1 - delta) * total <= |union|;
    that bound is asserted on every run.  The stronger conclusion
    inequalities are the verifier's to evaluate per instance.
    """
    _require_hypotheses(inst)
    sol = _thin(inst.delta, lambda lam: reversed(inst.layers))
    assert (1 - inst.delta) * sol.total_size <= sol.union_size
    return sol


def sample_random_cover(inst: RandomCoverInstance, seed: int, keeps=None) -> CoverSolution:
    """Seeded randomized cover: one pass over layers in decreasing (i, j).

    At the start of each layer the retention probability is
    q = min(1, delta * max(0, alpha |F| - |covered so far|) / |shape|),
    so sampling pressure decays as the target coverage is approached;
    retained centers are then thinned exactly like the greedy builder.
    Coverage never shrinks, so the pass ends at the first layer with
    q = 0.  q is num / den in integers: both tests are exact, and int
    true division rounds correctly, so the keep threshold is float(q).
    The output is a pure function of (instance, seed).  `keeps(i, j)`, if given,
    is that stream's row of layer (i, j) in iter_samples' keep table.
    """
    _require_hypotheses(inst)
    dn, dd = inst.delta.numerator, inst.delta.denominator
    gn, gd = inst.alpha.numerator * len(inst.ambient), inst.alpha.denominator

    def layers(lam):
        for (i, j), size, blocks in reversed(inst.layers):
            num, den = dn * (gn - len(lam) * gd), dd * gd * size
            if num <= 0:
                return
            if num < den:
                q_float = num / den
                draws = (keeps(i, j) if keeps else
                         map(uniform01_stream(seed, "keep", i, j), inst.keep_tails[i, j]))
                blocks = [ab for ab, u in zip(blocks, draws) if u < q_float]
            yield (i, j), size, blocks

    return _thin(inst.delta, layers)


@dataclass(frozen=True)
class GreedyCoverReport:
    """Exact evaluation of the single-indexed conclusion inequalities.

    Note: the printed lower bound compares against min_i |A_i|, which is
    how the source states it, even though a coverage-fraction form would
    scale more naturally with |F|; the comparison is reproduced verbatim.
    """

    disjointness_lhs: Fraction
    disjointness_rhs: Fraction
    coverage_lhs: int
    coverage_rhs: Fraction

    @property
    def disjointness_ok(self) -> bool:
        return self.disjointness_lhs >= self.disjointness_rhs

    @property
    def coverage_ok(self) -> bool:
        return self.coverage_lhs >= self.coverage_rhs

    @property
    def ok(self) -> bool:
        return self.disjointness_ok and self.coverage_ok


def verify_greedy_cover(inst: CoverInstance, sol: CoverSolution) -> GreedyCoverReport:
    """Check (1+delta)|union B| >= sum |B| >= min_i |A_i| - delta |F|."""
    min_centers = min(len(A) for A in inst.centers)
    return GreedyCoverReport(
        disjointness_lhs=(1 + inst.delta) * sol.union_size,
        disjointness_rhs=Fraction(sol.total_size),
        coverage_lhs=sol.total_size,
        coverage_rhs=min_centers - inst.delta * len(inst.ambient),
    )


@dataclass(frozen=True)
class RandomCoverReport:
    """Empirical check of the double-indexed conclusions over many samples."""

    samples: int
    max_conditional_multiplicity: float
    max_conditional_se: float
    multiplicity_bound: float
    mean_total_size: float
    total_size_se: float
    coverage_bound: float

    @property
    def multiplicity_ok(self) -> bool:
        slack = 3.0 * self.max_conditional_se
        return self.max_conditional_multiplicity < self.multiplicity_bound + slack

    @property
    def coverage_ok(self) -> bool:
        slack = 3.0 * self.total_size_se
        return self.mean_total_size > self.coverage_bound - slack

    @property
    def ok(self) -> bool:
        return self.multiplicity_ok and self.coverage_ok


def verify_random_cover(inst: RandomCoverInstance,
                        solutions: Iterable[CoverSolution]) -> RandomCoverReport:
    """Tally E(multiplicity | positive) per point and E(total size).

    Conclusions checked: the worst per-point conditional mean multiplicity
    stays below 1 + delta, and the mean total block mass exceeds
    (alpha - delta)|F|; both with 3-sigma slack from the sample spread.
    Among points tied at the worst mean the smallest standard error is
    reported: the strictest slack, and one that no point order can change.

    `solutions` is any iterable, read once, so samples may be drawn as they
    are verified.  Each covered point is tallied at its position in F, an
    index local to this call: np.bincount adds up count, sum and sum of
    squares of its multiplicities over chunks of at most _TALLY_CHUNK
    points, and mean and variance take the float64 operations of the
    scalar formula in its order.  At least 100 samples are required.
    """
    index = {coords: k for k, coords in enumerate(inst.ambient.coords)}
    tally = np.zeros((3, len(index)))
    totals = []
    pos: list = []
    mult: list = []
    for sol in solutions:
        totals.append(float(sol.total_size))
        try:
            pos += map(index.__getitem__, sol.multiplicity)
        except KeyError as exc:
            raise ValueError(f"covered point {exc.args[0]} lies outside the ambient set") from None
        mult += sol.multiplicity.values()
        if len(pos) >= _TALLY_CHUNK:
            _tally(tally, pos, mult)
    _tally(tally, pos, mult)
    if len(totals) < 100:
        raise ValueError("need at least 100 samples for stable statistics")
    worst_mean, worst_se = 0.0, 0.0
    k, acc, acc_sq = tally[:, tally[0] > 0]
    if k.size:
        mean = acc / k
        worst = mean == mean.max()
        k, mean, acc_sq = k[worst], mean[worst], acc_sq[worst]
        var = np.where(k > 1, (acc_sq - k * mean * mean) / np.maximum(k - 1, 1), 0.0)
        worst_mean = float(mean[0])
        worst_se = float(np.sqrt(np.maximum(var, 0.0) / k).min())
    mean_total, total_se = mean_and_se(totals)
    return RandomCoverReport(
        samples=len(totals),
        max_conditional_multiplicity=worst_mean,
        max_conditional_se=worst_se,
        multiplicity_bound=float(1 + inst.delta),
        mean_total_size=mean_total,
        total_size_se=total_se,
        coverage_bound=float((inst.alpha - inst.delta) * len(inst.ambient)),
    )


def _tally(tally: np.ndarray, pos: list, mult: list) -> None:
    """Add the count, sum and sum of squares of `mult` at each position of
    `pos` into the rows of `tally`, then empty both lists.  The sums are of
    integers below 2^53, so float64 holds them exactly."""
    n = tally.shape[1]
    p = np.array(pos, dtype=np.intp)
    m = np.array(mult, dtype=np.float64)
    tally[0] += np.bincount(p, minlength=n)
    tally[1] += np.bincount(p, m, n)
    tally[2] += np.bincount(p, m * m, n)
    pos.clear()
    mult.clear()


def iter_samples(inst: RandomCoverInstance, samples: int, seed: int) -> Iterator[CoverSolution]:
    """Independent seeded cover samples, stream-split from one root seed and
    drawn one at a time: sample s is sample_random_cover(inst,
    derive_seed(seed, "cover", s)).  In each chunk of max(1, _BLOCK // most
    centers in a layer) samples, the first to open layer (i, j) with q < 1
    draws the layer's keep table (uniform01_table) for the whole chunk."""
    width = max(1, _BLOCK // max(1, *(len(A) for row in inst.centers for A in row)))
    for first in range(0, samples, width):
        seeds = [derive_seed(seed, "cover", s) for s in range(first, min(first + width, samples))]

        @functools.cache
        def table(i, j, seeds=seeds):
            return uniform01_table(seeds, ("keep", i, j), inst.keep_tails[i, j])

        for row, sample_seed in enumerate(seeds):
            yield sample_random_cover(inst, sample_seed, keeps=lambda i, j, row=row, table=table:
                                      table(i, j)[row].tolist())


def sample_many(inst: RandomCoverInstance, samples: int, seed: int) -> list:
    """The samples of iter_samples, as a list."""
    return list(iter_samples(inst, samples, seed))
