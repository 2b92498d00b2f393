"""Quasi-tiling cover constructions and exact verifiers of their guarantees.

Two constructions are implemented over finite windows of a group:

* a deterministic greedy builder for a single-indexed family of shapes
  with center sets, which accepts a translate whenever its overlap with
  the already-covered region is at most a delta fraction of the shape;
* a randomized sampler for a double-indexed family, which retains each
  candidate center with a probability proportional to the remaining
  coverage gap and then thins exactly like the greedy builder.

Each instance keeps the points of F once, in lexicographic order, as its
`points`; a point's position is its index there.  It builds every block
S a once, as its cached `layers`, each block an int array of positions
(-1 for a point outside F, which the containment hypotheses read); the
hypotheses and every run of either construction read them.  A solution
is its picks, its total size and one count per position.
Both constructions run one thinning pass, _thin, over one or more rows:
the greedy row, one sample, or a chunk of samples from iter_samples.  Per
layer, each row's q is an integer ratio num / den, so its tests against
0 and 1 are exact and its keep threshold is float(q), and the rows with
0 < q < 1 draw their keeps as one rng.uniform01_table (row s equals
sample s's own draws); the thinning limit floor(delta |S|) is an integer
division too.  One row takes the blocks by a loop over a list of counts,
the twin the tests hold the kernel to; more rows take each block by one
numpy step over every row.  The randomized verifier
reads its samples from any iterable, once, and sums their count rows, so
samples can be verified as they are drawn without holding them all.

The underlying covering lemmas are existence statements; these builders
realize the standard constructions and the verifiers evaluate the stated
conclusion inequalities per instance, exactly where the quantities are
exact and with 3-sigma bands where they are empirical means.  A verifier
failure on a hypothesis-passing instance is reported, never masked.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .groups import FiniteSubset, inverse_set, product_set_size, require_same_group, union_of
from .rds import mean_and_se
from .rng import _BLOCK, Tails, derive_seed, uniform01_table


# Counts per tally chunk: the verifier sums at most this many, or one
# sample's, counts at a time, and a chunk of iter_samples holds no more.
_TALLY_CHUNK = 1 << 16

# The dtype of a solution's counts.
_COUNT = np.int32

# Chunks of fewer samples are cut into one-row passes.  The kernel's cost
# per block barely depends on the rows: over criterion 7's random instances
# and the forced-q1 control, r rows took 2.1 times r one-row passes at two
# rows, 1.1 times at four, 0.9 at five and 0.6 at eight (2-core x86-64,
# numpy 2).  The rule ignores block size, and the kernel costs more per
# point on small blocks, so it stays above that crossover.
_KERNEL_ROWS = 8


class HypothesisError(ValueError):
    """A cover construction was asked to run on a failing instance."""


def _as_unit_fraction(value, name: str) -> Fraction:
    fr = Fraction(repr(value)) if isinstance(value, float) else Fraction(value)
    if not 0 < fr < 1:
        raise ValueError(f"{name} must lie in (0, 1), got {fr}")
    return fr


class _Instance:
    """What both instance kinds share: F's points, the blocks, the hypotheses."""

    @functools.cached_property
    def points(self) -> tuple:
        """The points of F in lexicographic order; a position indexes this."""
        return tuple(sorted(self.ambient.coords))

    @functools.cached_property
    def hypotheses(self) -> "HypothesisReport":
        """check_hypotheses(self), evaluated once: instances are immutable."""
        return check_hypotheses(self)

    @functools.cached_property
    def _rows(self) -> tuple:
        """Each layer's blocks as lists of Python ints, for the one-row loop."""
        return tuple(blocks.tolist() for _, _, _, blocks in self.layers)

    @functools.cached_property
    def _picks(self) -> tuple:
        """Each layer's pick key + (center,) of every center, shared by all passes."""
        return tuple([key + (a,) for a in centers] for key, _, centers, _ in self.layers)

    def _layers(self, keyed) -> tuple:
        """(key, |S|, centers, blocks) for each (key, S, A) of `keyed`: centers
        holds A in lexicographic order as one rng.Tails, and row k of the int
        array blocks holds the position of each point f a of S a for the k-th
        center a, or -1 for a point outside F; a row's order never matters."""
        group = self.ambient.group
        index = {p: k for k, p in enumerate(self.points)}
        mc = group.mul_coords
        layers = []
        for key, shape, centers in keyed:
            for part in (shape, centers):
                require_same_group(part.group, group)
            offsets = tuple(shape.coords)
            tails = Tails(sorted(centers.coords))
            blocks = [[index.get(mc(f, a), -1) for f in offsets] for a in tails]
            layers.append((key, len(offsets), tails,
                           np.array(blocks, dtype=np.intp).reshape(len(tails), len(offsets))))
        return tuple(layers)


@dataclass(frozen=True)
class CoverInstance(_Instance):
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
        """The layer of each key (i,) in increasing order, built once."""
        return self._layers(((i,), S, A)
                            for i, (S, A) in enumerate(zip(self.shapes, self.centers), start=1))


@dataclass(frozen=True)
class RandomCoverInstance(_Instance):
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
        """The layer of each key (i, j) in increasing order, built once."""
        return self._layers(
            ((i, j), S, A)
            for i, (srow, crow) in enumerate(zip(self.shapes, self.centers), start=1)
            for j, (S, A) in enumerate(zip(srow, crow), start=1))


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
    for key, _, centers, blocks in inst.layers:
        ok = all(a in F for a in centers) and bool((blocks >= 0).all())
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
    """Chosen translates, their total size and the count at every point of F.

    picks holds (shape index, center coords) for greedy output and
    (i, j, center coords) for sampled output, all 1-based indices in the
    order the construction accepted them.  counts holds, as the bytes of
    an int32 array, the number of accepted blocks holding each point of
    `points` (the instance's), so solutions compare by value.
    """

    picks: tuple
    total_size: int
    points: tuple = field(repr=False)
    counts: bytes = field(repr=False)

    @property
    def multiplicity(self) -> dict:
        """Each covered point's coords -> its count, in position order."""
        counts = np.frombuffer(self.counts, _COUNT)
        covered = np.flatnonzero(counts)
        return dict(zip(map(self.points.__getitem__, covered.tolist()),
                        counts[covered].tolist()))

    @property
    def union_size(self) -> int:
        return int(np.count_nonzero(np.frombuffer(self.counts, _COUNT)))


def _require_hypotheses(inst) -> None:
    report = inst.hypotheses
    if not report.ok:
        raise HypothesisError(f"instance fails hypotheses: {', '.join(report.failures)}")


def _thin(inst, seeds) -> tuple:
    """The one thinning pass: the picks, total sizes and count rows of the
    cover of each seed of `seeds`, or of the greedy row if seeds is None.
    It checks the hypotheses first, and holds no CoverSolution, so a sample
    lives no longer than its reader keeps it.

    Layers are taken in decreasing key order.  As each opens, a row keeps
    each center with probability q = num / den on Python ints:
    q = delta (alpha |F| - |covered so far|) / |shape|, where the greedy
    row's goal alpha |F| is 1 / 0, so its q stays above 1.  The pass ends
    where every row has q <= 0: coverage never shrinks, so such a row would
    keep nothing from then on.  The rows with 0 < q < 1 draw one keep table
    (row r equals seeds[r]'s own stream), and int true division rounds
    correctly, so the threshold is float(q).  Then a kept block is
    accepted iff its overlap with the row's covered points is at most
    floor(delta |shape|), exact in integers.  One row takes the blocks by
    a loop over a list of counts; more rows take each block by one numpy
    step over a matrix with one column per row.
    """
    _require_hypotheses(inst)
    dn, dd = inst.delta.numerator, inst.delta.denominator
    if seeds is None:
        seeds, gn, gd = [None], 1, 0
    else:
        gn, gd = inst.alpha.numerator * len(inst.ambient), inst.alpha.denominator
    one = len(seeds) == 1
    counts = [0] * len(inst.points) if one else np.zeros((len(inst.points), len(seeds)), _COUNT)
    covered = [0] * len(seeds)
    picks = [[] for _ in seeds]
    for layer, (key, size, centers, blocks) in reversed(tuple(enumerate(inst.layers))):
        den = dd * gd * size
        nums = [dn * (gn - u * gd) for u in covered]
        if max(nums) <= 0:
            break
        keep = np.zeros((len(centers), len(seeds)), bool)
        keep[:, [r for r, num in enumerate(nums) if num >= den]] = True
        drawn = [r for r, num in enumerate(nums) if 0 < num < den]
        if drawn:
            table = uniform01_table([seeds[r] for r in drawn], ("keep", *key), centers)
            keep[:, drawn] = table.T < np.array([nums[r] / den for r in drawn])
        limit = dn * size // dd
        if one:
            held, accepted, (u,) = counts.__getitem__, [], covered
            for c, block in itertools.compress(enumerate(inst._rows[layer]), keep[:, 0].tolist()):
                fresh = list(map(held, block)).count(0)
                if size - fresh <= limit:
                    accepted.append(c)
                    u += fresh
                    for p in block:
                        counts[p] += 1
            covered, hits = [u], zip(itertools.repeat(0), accepted)
        else:
            for block, kept in zip(blocks, keep):
                held = counts[block]
                kept &= np.count_nonzero(held, axis=0) <= limit
                held += kept
                counts[block] = held
            covered = np.count_nonzero(counts, axis=0).tolist()
            hits = zip(*(ix.tolist() for ix in np.nonzero(keep.T)))
        layer_picks = inst._picks[layer]
        for r, c in hits:
            picks[r].append(layer_picks[c])
    # the blocks of a passing instance lie in F, so a row's counts sum to its total size
    counts = np.array([counts], _COUNT) if one else counts.T
    return list(map(tuple, picks)), counts.sum(axis=1, dtype=np.int64).tolist(), counts


def _solution(inst, thinned: tuple, row: int) -> CoverSolution:
    """Row `row` of a _thin pass, as a CoverSolution."""
    picks, totals, counts = thinned
    return CoverSolution(picks[row], totals[row], inst.points, counts[row].tobytes())


def greedy_cover(inst: CoverInstance) -> CoverSolution:
    """Deterministic cover: shapes from largest index down, centers in
    lexicographic order, delta-fraction overlap acceptance.

    By construction every accepted block contributes at least
    (1 - delta) |shape| new points, so (1 - delta) * total <= |union|;
    that bound is asserted on every run.  The stronger conclusion
    inequalities are the verifier's to evaluate per instance.
    """
    sol = _solution(inst, _thin(inst, None), 0)
    assert (1 - inst.delta) * sol.total_size <= sol.union_size
    return sol


def sample_random_cover(inst: RandomCoverInstance, seed: int, chunk=None) -> CoverSolution:
    """Seeded randomized cover: one pass over layers in decreasing (i, j).

    At the start of each layer the retention probability is
    q = min(1, delta * max(0, alpha |F| - |covered so far|) / |shape|),
    so sampling pressure decays as the target coverage is approached;
    retained centers are then thinned exactly like the greedy builder
    (_thin).  The output is a pure function of (instance, seed).
    `chunk`, if given, is (thin, row) from iter_samples: thin() is the
    _thin pass of this seed's chunk, cached, and this seed's is its row.
    """
    thin, row = chunk or (functools.partial(_thin, inst, [seed]), 0)
    return _solution(inst, thin(), row)


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
    are verified.  Each solution counts the instance's points (a ValueError
    otherwise); count rows are summed per position, at most _TALLY_CHUNK
    counts, or one row, at a time, and mean and variance take the float64
    operations of the scalar formula in its order.  At least 100 samples
    are required.
    """
    points = inst.points
    rows = max(1, _TALLY_CHUNK // max(1, len(points)))
    tally = np.zeros((3, len(points)))
    totals = []
    counts: list = []
    for sol in solutions:
        if sol.points is not points and sol.points != points:
            raise ValueError("a solution counts points other than the ambient set")
        totals.append(float(sol.total_size))
        counts.append(sol.counts)
        if len(counts) == rows:
            _tally(tally, counts)
    _tally(tally, counts)
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


def _tally(tally: np.ndarray, counts: list) -> None:
    """Add how many rows of `counts` cover each position, and the sum and
    sum of squares of its counts, into the rows of `tally`, then empty
    `counts`.  The sums are of integers below 2^53, so float64 holds them
    exactly."""
    if not counts:
        return
    m = np.frombuffer(b"".join(counts), _COUNT).reshape(len(counts), tally.shape[1])
    tally[0] += np.count_nonzero(m, axis=0)
    tally[1] += m.sum(axis=0, dtype=np.int64)
    tally[2] += np.square(m, dtype=np.int64).sum(axis=0)
    counts.clear()


def iter_samples(inst: RandomCoverInstance, samples: int, seed: int) -> Iterator[CoverSolution]:
    """Independent seeded cover samples, stream-split from one root seed and
    yielded one at a time: sample s is sample_random_cover(inst,
    derive_seed(seed, "cover", s)).  The samples come in chunks of
    max(1, min(_BLOCK // most centers in a layer, _TALLY_CHUNK // |F|)),
    so a chunk's keep tables and counts stay within those sizes; the first
    sample of a chunk of at least _KERNEL_ROWS thins the whole chunk by one
    _thin pass, and a narrower chunk is cut into one-row passes."""
    most = max(1, *(len(A) for row in inst.centers for A in row))
    width = max(1, min(_BLOCK // most, _TALLY_CHUNK // max(1, len(inst.ambient))))
    for first in range(0, samples, width):
        seeds = [derive_seed(seed, "cover", s) for s in range(first, min(first + width, samples))]
        for part in [seeds] if len(seeds) >= _KERNEL_ROWS else [[s] for s in seeds]:
            thin = functools.cache(functools.partial(_thin, inst, part))
            for row, sample_seed in enumerate(part):
                yield sample_random_cover(inst, sample_seed, (thin, row))


def sample_many(inst: RandomCoverInstance, samples: int, seed: int) -> list:
    """The samples of iter_samples, as a list."""
    return list(iter_samples(inst, samples, seed))
