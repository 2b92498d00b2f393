"""Which package functions the traced run wraps, and the per-layer metrics.

Every entry of TARGETS is (span name, owner, attribute).  The tracer
replaces the function at each module or class of the package that binds
it, so `rng.uniform01` is caught whether `rds`, `covering` or `rng`
itself made the call.  A span name is `<module>.<function>`, the module
being the one that defines it.

LAYER_METRICS lists each per-layer metric with its unit, the direction
that is better, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools

import numpy as np

import fiberent.cli as cli
import fiberent.config as config
import fiberent.covering as covering
import fiberent.entropy as entropy
import fiberent.folner as folner
import fiberent.groups as groups
import fiberent.measures as measures
import fiberent.rds as rds
import fiberent.rng as rng

TARGETS = [
    ("rng.mix64", rng, "mix64"),
    ("rng.derive_seed", rng, "derive_seed"),
    ("rng.uniform01", rng, "uniform01"),
    ("rds.symbol_at", rds.ProductSampler, "symbol_at"),
    ("rds.symbol_at", rds.ConditionalSampler, "symbol_at"),
    ("rds.symbol_at", rds.MarkovPathSampler, "symbol_at"),
    ("rds.sample_point", rds, "sample_point"),
    ("rds.check_cocycle", rds, "check_cocycle"),
    ("entropy.smb_trace", entropy, "smb_trace"),
    ("entropy.smb_worker", entropy, "_smb_worker"),
    ("entropy.chain_rule_residual", entropy, "chain_rule_residual"),
    ("entropy.chain_rule_terms", entropy, "chain_rule_terms"),
    ("entropy.information", entropy, "information"),
    ("entropy.conditional_information", entropy, "conditional_information"),
    ("entropy.conditional_entropy_trace", entropy, "conditional_entropy_trace"),
    ("measures.cell_of", measures, "cell_of"),
    ("measures.cell_measure", measures, "cell_measure"),
    ("measures.enumerate_cells", measures, "enumerate_cells"),
    ("measures.check_invariance", measures, "check_invariance"),
    ("groups.box", groups.ZdGroup, "box"),
    ("groups.box", groups.HeisenbergGroup, "box"),
    ("groups.is_subset", groups.FiniteSubset, "is_subset"),
    ("groups.translate", groups, "translate"),
    ("groups.inverse_set", groups, "inverse_set"),
    ("groups.product_set", groups, "product_set"),
    ("groups.product_set_size", groups, "product_set_size"),
    ("groups.zd_product_fft", groups, "_zd_product_fft"),
    ("groups.fftconvolve", groups, "fftconvolve"),
    ("groups.random_element", groups, "random_element"),
    ("folner.box_folner", folner, "box_folner"),
    ("folner.box_folner_sizes", folner, "box_folner_sizes"),
    ("folner.heisenberg_folner", folner, "heisenberg_folner"),
    ("folner.validate_sequence", folner, "validate_sequence"),
    ("folner.tempered_constant", folner, "tempered_constant"),
    ("folner.folner_defect", folner, "folner_defect"),
    ("covering.check_hypotheses", covering, "check_hypotheses"),
    ("covering.greedy_cover", covering, "greedy_cover"),
    ("covering.verify_greedy_cover", covering, "verify_greedy_cover"),
    ("covering.sample_many", covering, "sample_many"),
    ("covering.sample_random_cover", covering, "sample_random_cover"),
    ("covering.verify_random_cover", covering, "verify_random_cover"),
    ("config.parse_config", config, "parse_config"),
    ("config.build_model", config, "build_model"),
    ("cli.main", cli, "main"),
]


def _count_pairs(key: str):
    def hook(counters, args, result):
        counters[key] += len(args[0]) * len(args[1])
    return hook


def _count_points(counters, args, result):
    counters["box_points"] += len(result)


def _count_blocks(counters, args, result):
    centers = args[0].centers
    if isinstance(centers[0], tuple):  # a randomized instance's rows
        centers = [A for row in centers for A in row]
    counters["blocks_accepted"] += len(result.picks)
    counters["centers_offered"] += sum(len(A) for A in centers)


# Counters kept at span boundaries: a hook sees each call that returns.
HOOKS = {
    "groups.product_set": _count_pairs("product_set_pairs"),
    "groups.zd_product_fft": _count_pairs("fft_pairs"),
    "groups.box": _count_points,
    "covering.sample_random_cover": _count_blocks,
    "covering.greedy_cover": _count_blocks,
}


def install(tracer, targets=TARGETS) -> None:
    for name, owner, attr in targets:
        hook = HOOKS.get(name)
        tracer.install(name, owner, attr, hook and functools.partial(hook, tracer.counters))


_MOVES_SMB = ("wall_ref on smb-pointwise through its smb part (sites_per_s); "
              "should not move its pointwise part (checks_per_s)")
_MOVES_SETS = ("wall_ref on folner-cover through its folner part (pairs_per_s), "
               "secondarily its cover part (samples_per_s)")
_MOVES_COVER = "wall_ref on folner-cover through its cover part (samples_per_s)"
_MOVES_POINTWISE = "wall_ref on smb-pointwise through its pointwise part (checks_per_s)"
_MOVES_SETUP = "setup_s and wall_ref on every workload"

# (name, unit, better, what it should move)
LAYER_METRICS = [
    ("rng.mix64.calls", "count", "lower", _MOVES_SMB),
    ("rng.mix64.self_s", "s", "lower", _MOVES_SMB),
    ("rds.symbol_at.calls", "count", "lower", _MOVES_SMB),
    ("rds.symbol_at.self_s", "s", "lower", _MOVES_SMB),
    ("rds.memo_hit_ratio", "ratio", "higher", _MOVES_SMB),
    ("entropy.smb_worker.self_s", "s", "lower", _MOVES_SMB),
    ("groups.product_set.calls", "count", "lower", _MOVES_SETS),
    ("groups.product_set.self_s", "s", "lower", _MOVES_SETS),
    ("groups.product_set.pairs_enumerated", "count", "lower", _MOVES_SETS),
    ("groups.product_set.fft_calls", "count", "lower", _MOVES_SETS),
    ("groups.box.points", "count", "lower", _MOVES_SETS),
    ("groups.box.self_s", "s", "lower", _MOVES_SETS),
    ("groups.translate.self_s", "s", "lower", _MOVES_SETS),
    ("groups.is_subset.self_s", "s", "lower", _MOVES_SETS),
    ("folner.tempered_constant.self_s", "s", "lower", _MOVES_SETS),
    ("folner.folner_defect.self_s", "s", "lower", _MOVES_SETS),
    ("covering.check_hypotheses.calls", "count", "lower", _MOVES_COVER),
    ("covering.check_hypotheses.self_s", "s", "lower", _MOVES_COVER),
    ("covering.sample_random_cover.self_s", "s", "lower", _MOVES_COVER),
    ("covering.verify_random_cover.self_s", "s", "lower", _MOVES_COVER),
    ("covering.block_accept_ratio", "ratio", "higher", _MOVES_COVER),
    ("measures.cell_measure.calls", "count", "lower", _MOVES_POINTWISE),
    ("measures.cell_measure.self_s", "s", "lower", _MOVES_POINTWISE),
    ("measures.check_invariance.self_s", "s", "lower", _MOVES_POINTWISE),
    ("entropy.chain_rule_terms.calls", "count", "lower", _MOVES_POINTWISE),
    ("entropy.chain_rule_terms.self_s", "s", "lower", _MOVES_POINTWISE),
    ("rds.check_cocycle.self_s", "s", "lower", _MOVES_POINTWISE),
    ("config.parse_config.self_s", "s", "lower", _MOVES_SETUP),
    ("cli.main.self_s", "s", "lower", _MOVES_SETUP),
]


def _name_id(tracer, name: str) -> int:
    """The tracer's id for span `name`; -1, which matches no span, if unseen."""
    return tracer.names.index(name) if name in tracer.names else -1


def layer_metrics(tracer) -> dict:
    """Per-layer values over every span the tracer holds."""
    cols = tracer.arrays()
    name_id, parent = cols["name_id"], cols["parent"]
    counters = tracer.counters

    def select(name):
        return name_id == _name_id(tracer, name)

    out = {}
    for metric, _unit, _better, _moves in LAYER_METRICS:
        layer, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = int(select(layer).sum())
        elif stat == "self_s":
            out[metric] = float(cols["self"][select(layer)].sum())
    lookups = select("rds.symbol_at")
    parent_id = np.where(parent >= 0, name_id[parent], -1)
    draws = select("rng.uniform01") & (parent_id == _name_id(tracer, "rds.symbol_at"))
    out["rds.memo_hit_ratio"] = 1.0 - int(draws.sum()) / int(lookups.sum())
    out["groups.product_set.pairs_enumerated"] = (
        counters["product_set_pairs"] - counters["fft_pairs"])
    out["groups.product_set.fft_calls"] = int(select("groups.fftconvolve").sum())
    out["groups.box.points"] = counters["box_points"]
    out["covering.block_accept_ratio"] = (
        counters["blocks_accepted"] / counters["centers_offered"])
    return out


def covered_time(tracer, cols: dict, names, first: int, last: int) -> float:
    """Time inside spans named `names` among spans first..last-1, not
    counting a span nested inside another of them."""
    wanted = np.isin(cols["name_id"], [_name_id(tracer, n) for n in names])
    parent = cols["parent"]
    total = 0.0
    for i in np.flatnonzero(wanted[first:last]) + first:
        p = parent[i]
        while p >= 0 and not wanted[p]:
            p = parent[p]
        if p < 0:
            total += cols["duration"][i]
    return total
