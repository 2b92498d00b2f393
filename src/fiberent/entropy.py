"""Information functions, fiber entropy, and the convergence experiments.

The central quantity is the empirical fiber information rate

    (1 / |F_n|) * ( -ln mu_omega( cell of x over F_n ) )

whose almost-sure limit along a tempered Folner sequence is the fiber
entropy.  Here are that quantity, conditional information, the telescoping
chain rule (read at skew-translated points, as the limit theorem's proof
decomposes it) and Monte Carlo traces with standard errors, whose targets
are the models' closed-form entropies (`fiber_entropy`, `conditional_entropy`).

The identity checks are exact: each conditional term is one Fraction of the
model's integer factor products (`conditional_measure` of the symbol at e),
and the chain rule builds each D = R g^-1 as coordinates.  Long-window
traces sum the same factors as logs, since a 4096-site cylinder's
probability underflows any float; `smb_trace` reads the whole schedule by
one model plan.  Both traces read any iterable of windows once, holding one
at a time, and give one `TraceRow` per window F_n, the row the CLI writes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .groups import FiniteSubset, GroupElement, require_same_group, subset
from .measures import PartitionSpec, cell_measure, cell_of
from .rds import SkewPoint, ZeroMeasureError, mean_and_se, sample_point, shannon_entropy, skew


def log_fraction(fr: Fraction) -> float:
    """ln of a positive rational, safe for values far outside float range."""
    if fr.numerator <= 0:
        raise ZeroMeasureError("log of a non-positive measure")
    return math.log(fr.numerator) - math.log(fr.denominator)


def information(mu, xi: PartitionSpec, F: FiniteSubset, p: SkewPoint) -> float:
    """Pointwise information -ln mu_omega(cell of p over F)."""
    return -log_fraction(cell_measure(mu, p.omega, cell_of(mu, xi, F, p)))


def conditional_information(mu, xi: PartitionSpec,
                            cond_set: FiniteSubset, p: SkewPoint) -> float:
    """-ln of mu_omega(cell over {e} + cond_set) / mu_omega(that cell without e);
    a set holding e raises ValueError in `conditional_measure`."""
    require_same_group(cond_set.group, p.x.group)
    return _conditional_term(mu, cond_set.coords, cond_set.group.identity().coords, p)


def _conditional_term(mu, cond: set, e: tuple, p: SkewPoint) -> float:
    """-ln of mu_omega(cell of p over {e} + cond) / mu_omega(that cell without e)."""
    coords = [e, *cond]
    s = p.x.values_at(coords)
    return -log_fraction(mu.conditional_measure(p.omega, zip(coords[1:], s[1:]), e, s[:1])[0])


def chain_rule_terms(mu, xi: PartitionSpec, F: FiniteSubset,
                     order: Sequence[GroupElement], p: SkewPoint) -> list:
    """Telescoping decomposition of information(F) along an enumeration:
    term j conditions the identity of the point translated by g_j on the
    not-yet-consumed remainder pulled into that frame, D_j = (F minus
    {g_1..g_j}) g_j^{-1}.  The terms sum to information(F) for any order."""
    order = list(order)
    if len(order) != len(F) or subset(F.group, order) != F:
        raise ValueError("order must enumerate F exactly once")
    group = F.group
    e = group.identity().coords
    remaining = set(F.coords)
    terms = []
    for g in order:
        remaining.discard(g.coords)
        g_inv = group.inverse_coords(g.coords)
        D = {group.mul_coords(r, g_inv) for r in remaining}
        terms.append(_conditional_term(mu, D, e, skew(mu, g, p)))
    return terms


def chain_rule_residual(mu, xi: PartitionSpec, F: FiniteSubset,
                        order: Sequence[GroupElement], p: SkewPoint) -> float:
    """|information(F) - sum of telescoping terms| for one enumeration."""
    return abs(information(mu, xi, F, p) - math.fsum(chain_rule_terms(mu, xi, F, order, p)))


@dataclass(frozen=True)
class TraceRow:
    n: int
    folner_size: int
    estimate: float
    target: Optional[float]
    std_error: Optional[float]

    @property
    def abs_error(self) -> Optional[float]:
        if self.target is None:
            return None
        return abs(self.estimate - self.target)


@dataclass(frozen=True)
class ConvergenceTrace:
    """One row per set of the sequence, F_1 first."""

    rows: tuple

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]


def _smb_worker(args) -> np.ndarray:
    """Information totals of a share of trajectories: a float64 table with a
    row per trajectory index and a column per set F_n, filled a row at a time.

    Pure function of (model, plan, seed, indices): safe to farm out to
    worker processes, and byte-identical regardless of scheduling.
    """
    model, plan, seed, indices = args
    table = np.empty((len(indices), sum(len(ends) for _, ends in plan)))
    for row, index in zip(table, indices):
        row[:] = model.smb_totals(plan, sample_point(model, seed, index))
    return table


def smb_trace(model, windows: Iterable[FiniteSubset], trajectories: int, seed: int,
              workers: int = 1) -> ConvergenceTrace:
    """Empirical information rate per window F_n, averaged over trajectories.

    The windows are read once, into the model's plan, whose run ends are the
    sizes |F_n|.  Each trajectory is an independent (omega, x) draw on its
    own stream; a row is the mean of information/|F_n| and its standard
    error.  Each worker gets the plan once, with one contiguous share of the
    trajectories (one run is the one-share case), so rows do not depend on them.
    """
    if trajectories < 1:
        raise ValueError("trajectories must be >= 1")
    plan = model.smb_plan(F.coords for F in windows)
    sizes = [end for _, ends in plan for end in ends]
    if not sizes or not all(sizes):
        raise ValueError("a schedule needs at least one window, and every window a site")
    target, shares = model.fiber_entropy(), min(workers, trajectories)
    cuts = [trajectories * k // shares for k in range(shares + 1)]
    tasks = [(model, plan, seed, range(a, b)) for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(shares) if shares > 1 else nullcontext() as pool:
        tables = list((pool.map if pool else map)(_smb_worker, tasks))
    rows = []
    for n, size in enumerate(sizes, start=1):  # one column at a time: no copy of the tables
        column = np.concatenate([table[:, n - 1] for table in tables])
        mean, se = mean_and_se((column / size).tolist())
        rows.append(TraceRow(n=n, folner_size=size, estimate=mean, target=target, std_error=se))
    return ConvergenceTrace(tuple(rows))


def conditional_entropy_trace(model, windows: Iterable[FiniteSubset], seed: int = 0,
                              method: str = "exact", samples: int = 2000) -> ConvergenceTrace:
    """Base-averaged conditional entropy given the join over F_n minus {e}.

    The join excludes the identity, which would force the value to zero;
    the telescoping decomposition conditions each site on later ones only.
    method "exact" evaluates `model.conditional_entropy`; "monte-carlo"
    averages the entropy of the exact conditional label law over sampled
    points, which stays unbiased.  Each sample reads the whole conditioning
    window with one `values_at`, and the law is the conditional measure of
    each symbol at e given that cell, so a null cell raises.
    """
    if method not in ("exact", "monte-carlo"):
        raise ValueError(f"unknown method: {method}")
    if method == "monte-carlo" and samples < 1:
        raise ValueError("samples must be >= 1")
    target, symbols = model.fiber_entropy(), range(model.fiber_alphabet_size)
    rows = []
    for n, F in enumerate(windows, start=1):
        if not F.coords:
            raise ValueError("every window F_n must be non-empty")
        require_same_group(F.group, model.group)
        e = F.group.identity().coords
        cond = FiniteSubset(F.group, F.coords - {e})
        if method == "exact":
            est, se = model.conditional_entropy(cond), None
        else:
            values, coords = [], list(cond.coords)
            for i in range(samples):
                point = sample_point(model, seed, i)
                labels = zip(coords, point.x.values_at(coords))
                dist = model.conditional_measure(point.omega, labels, e, symbols)
                values.append(shannon_entropy(dist))
            est, se = mean_and_se(values)
        rows.append(TraceRow(n=n, folner_size=len(F), estimate=est, target=target, std_error=se))
    if not rows:
        raise ValueError("a schedule needs at least one window")
    return ConvergenceTrace(tuple(rows))
