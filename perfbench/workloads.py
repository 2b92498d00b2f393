"""The benchmark workloads: four parts, each with its inputs, one pass and
its checks, paired into two workloads.

Each part has a `setup` that parses and validates its configs and
builds its models, Folner sets and cover instances, and a `run_pass` that
does the timed work: config runs through `fiberent.cli.main` in-process,
and acceptance-criterion inputs through the library.  Every config run and
every checked library call is one operation; it fails on a wrong exit
code, an `assertion: fail`, an exact value that differs from its closed
form, a statistical estimate outside its stated tolerance, or artifacts
that differ byte for byte from the first pass of the same run.

Library calls go through module attributes looked up at call time
(`fiberent.entropy.smb_trace`, not a name imported here), so the tracer's
wrappers see them.

Sizes are smaller than the acceptance suite where a full criterion would
not fit several passes into one measured run; the numbers are stated at
each constant.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import fiberent.cli
import fiberent.config
import fiberent.covering as cov
import fiberent.entropy as ent
import fiberent.folner as fol
import fiberent.groups as grp
import fiberent.measures as meas
import fiberent.rds as rds

Z1, Z2, Z3 = grp.ZdGroup(1), grp.ZdGroup(2), grp.ZdGroup(3)
H = grp.HeisenbergGroup()

# Criterion 6 sweeps.  The acceptance suite runs Z^2 tempered constants
# for every n <= 64 and Z^3 up to n = 64 (about 16 M enumerated pairs,
# 30 s here).  These doubling schedules still run both product_set paths,
# enumeration below _FFT_PAIR_THRESHOLD and FFT above it (Z^2 at n = 64,
# Z^3 at n = 16), next to folner_z3.cfg's 2.7 M enumerated pairs, and keep
# a pass near 4.5 s.
Z2_TEMPERED_SIDES = (2, 4, 8, 16, 64)
Z3_TEMPERED_SIDES = (2, 4, 8, 16)
# Criterion 7 runs 10^4 samples per randomized instance; the shipped
# cover_random.cfg draws 2,000.  300 per instance keeps a pass near 4 s.
RANDOM_SUITE_SAMPLES = 300
NEGATIVE_Q1_SAMPLES = 200
# Criterion 4 samples 200 orders per window size 5..9.
CHAIN_RULE_SAMPLED_ORDERS = 100
COCYCLE_CHECKS_PER_MODEL = 1000
INVARIANCE_CHECKS_PER_MODEL = 100


def shannon(dist) -> float:
    return -math.fsum(float(p) * math.log(float(p)) for p in dist if p > 0)


def fmt12(value) -> str:
    """The CLI's 12-significant-digit CSV format."""
    return "%.12g" % float(value)


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    work: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append(Op(name, bool(ok), "" if ok else detail))
        return bool(ok)


class Context:
    """Seeds, paths, and the first pass's artifacts for byte comparison."""

    def __init__(self, root: Path, seed, out_dir: Path):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.reference: dict = {}

    def seed_for(self, label: str, default: int) -> int:
        """The shipped seed, or one derived from --seed and the input's label."""
        if self.seed is None:
            return default
        digest = hashlib.blake2b(f"{self.seed}/{label}".encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little")

    def config_path(self, name: str) -> Path:
        return self.root / "configs" / name

    def parse(self, name: str, subcommand: str):
        text = self.config_path(name).read_text(encoding="utf-8")
        return fiberent.config.parse_config(text, subcommand)


def read_key_values(path: Path) -> dict:
    """Raw `key = value` pairs, for a config the package's parser rejects."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        body = line.split("#", 1)[0].strip()
        if "=" in body:
            key, _, raw = body.partition("=")
            out[key.strip()] = raw.strip()
    return out


def invoke_cli(ctx: Context, label: str, subcommand: str, config: str, seed: int):
    """Run one config through `fiberent.cli.main`; (exit code, stderr, csv, summary)."""
    out = ctx.out_dir / f"{label}.csv"
    argv = [subcommand, "--config", str(ctx.config_path(config)), "--out", str(out),
            "--seed", str(seed)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = fiberent.cli.main(argv)
    if code not in (0, 3):
        return code, err.getvalue(), b"", b""
    return code, err.getvalue(), out.read_bytes(), Path(str(out) + ".summary").read_bytes()


def config_op(res: PassResult, ctx: Context, label: str, subcommand: str, config: str,
              seed: int, expect=None) -> None:
    """One config run as one operation: exit 0, `assertion: pass`, the same
    bytes as the first pass, then `expect(csv_rows, summary_fields)`."""
    code, err, csv, summary = invoke_cli(ctx, label, subcommand, config, seed)
    fields = dict(
        line.split(": ", 1) for line in summary.decode().splitlines() if ": " in line
    )
    if code != 0:
        problem = f"exit {code}: {err.strip()}"
    elif fields.get("assertion") != "pass":
        problem = "assertion: fail"
    elif ctx.reference.setdefault(label, (csv, summary)) != (csv, summary):
        problem = "artifacts differ from the first pass"
    elif expect is not None:
        problem = expect(csv.decode().splitlines()[1:], fields)
    else:
        problem = None
    res.check(label, problem is None, problem or "")


# ---------------------------------------------------------------- smb

class Smb:
    name = "smb"
    work_unit = "sites"
    phase = ("entropy.smb_trace",)
    dominant = ("entropy.smb_worker",)

    CONFIGS = (("smb-bernoulli", "smb_bernoulli_z2.cfg"), ("smb-mixed", "smb_mixed_z2.cfg"))

    def setup(self, ctx: Context) -> dict:
        state = {"configs": []}
        for label, name in self.CONFIGS:
            cfg = ctx.parse(name, "smb-run")
            model = fiberent.config.build_model(cfg)
            seq = fol.box_folner(model.group.d, cfg.get("n_max"))
            state["configs"].append((label, name, cfg, closed_form_rate(model), len(seq.sets[-1])))
        raw = read_key_values(ctx.config_path("smb_markov.cfg"))
        rows = [[Fraction(v.strip()) for v in raw[k].split(",")]
                for k in sorted(k for k in raw if k.startswith("transition_"))]
        state["markov"] = {
            "model": rds.MarkovModel.create(rows),
            "seq": fol.box_folner_sizes(1, [int(s) for s in raw["sides"].split(",")]),
            "trajectories": int(raw["trajectories"]),
            "seed": int(raw["seed"]),
            "tolerance": float(Fraction(raw["tolerance"])),
            "rate": markov_rate(rows),
        }
        return state

    def run_pass(self, state: dict, ctx: Context) -> PassResult:
        res = PassResult()
        for label, name, cfg, target, largest in state["configs"]:
            def expect(rows, fields, target=target):
                if abs(float(fields["target"]) - target) > 1e-11:
                    return f"target {fields['target']} != closed form {target!r}"
                return None
            config_op(res, ctx, label, "smb-run", name,
                      ctx.seed_for(label, cfg.get("seed")), expect)
            res.work += cfg.get("trajectories") * largest
        m = state["markov"]
        trace = ent.smb_trace(m["model"], m["seq"], trajectories=m["trajectories"],
                              seed=ctx.seed_for("smb-markov", m["seed"]))
        final = trace.final
        res.check("smb-markov-trace",
                  final.abs_error <= m["tolerance"] and abs(final.target - m["rate"]) <= 1e-12,
                  f"|err| {final.abs_error} > {m['tolerance']} or target {final.target}")
        res.work += m["trajectories"] * len(m["seq"].sets[-1])
        return res

    def probe(self, state: dict, ctx: Context) -> dict:
        """The shipped Markov config through the CLI; outside the timed region."""
        code, err, _, _ = invoke_cli(ctx, "smb-markov-cli", "smb-run", "smb_markov.cfg",
                                     ctx.seed_for("smb-markov", state["markov"]["seed"]))
        return {"config": "smb_markov.cfg", "exit": code, "stderr": err.strip()}


def markov_rate(rows) -> float:
    """Entropy rate sum_a pi_a H(P_a.) of a two-state chain, pi in closed form."""
    (p00, p01), (p10, p11) = rows
    pi0 = p10 / (p01 + p10)
    return math.fsum([float(pi0) * shannon(rows[0]), float(1 - pi0) * shannon(rows[1])])


def closed_form_rate(model) -> float:
    """Fiber entropy of a product model: H(p), or the base-weighted mix of rows."""
    if model.kind == "bernoulli":
        return shannon(model.p)
    return math.fsum(float(b) * shannon(row) for b, row in zip(model.base_p, model.fiber_ps))


# ---------------------------------------------------------------- folner

def _tempered_closed_form(n: int, d: int) -> Fraction:
    return Fraction((2 * n - 2) ** d, n ** d)


class Folner:
    name = "folner"
    work_unit = "pairs"
    phase = ()
    dominant = ("groups.product_set", "groups.product_set_size")

    def setup(self, ctx: Context) -> dict:
        z3 = ctx.parse("folner_z3.cfg", "folner-check")
        heis = ctx.parse("folner_heisenberg.cfg", "folner-check")
        return {
            "z3_cfg": z3,
            "z3_seq": fol.box_folner(z3.get("group").d, z3.get("n_max")),
            "heis_cfg": heis,
            "heis_seq": fol.heisenberg_folner(heis.get("n_max")),
            "pair": grp.subset_from_coords(Z1, [(0,), (1,)]),
            "single": grp.subset_from_coords(Z1, [(1,)]),
            "seq1": fol.box_folner(1, 64),
            "seq2": fol.box_folner(2, max(Z2_TEMPERED_SIDES)),
            "z3_boxes": {n: (Z3.box(n - 1, n - 1, n - 1), Z3.box(n, n, n))
                         for n in Z3_TEMPERED_SIDES},
            "generators": grp.subset_from_coords(H, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            "hseq": fol.heisenberg_folner(4),
        }

    def run_pass(self, state: dict, ctx: Context) -> PassResult:
        res = PassResult()
        z3_cfg, z3_seq = state["z3_cfg"], state["z3_seq"]

        def expect_z3(rows, fields):
            for row in rows:
                n, _, estimate = row.split(",")[:3]
                want = fmt12(_tempered_closed_form(int(n), 3))
                if estimate != want:
                    return f"tempered constant at n={n} is {estimate}, closed form {want}"
            want_max = _tempered_closed_form(z3_cfg.get("n_max"), 3)
            if fields["max_tempered"] != str(want_max):
                return f"max_tempered {fields['max_tempered']} != {want_max}"
            return None

        config_op(res, ctx, "folner-z3", "folner-check", "folner_z3.cfg",
                  ctx.seed_for("folner-z3", z3_cfg.get("seed")), expect_z3)
        res.work += _nested_pairs(z3_seq)
        heis_cfg = state["heis_cfg"]
        config_op(res, ctx, "folner-heisenberg", "folner-check", "folner_heisenberg.cfg",
                  ctx.seed_for("folner-heisenberg", heis_cfg.get("seed")))
        res.work += _nested_pairs(state["heis_seq"])

        pair, single = state["pair"], state["single"]
        for F in state["seq1"].sets:
            n = len(F)
            for K, want in ((pair, Fraction(1, n)), (single, Fraction(2, n))):
                got = fol.folner_defect(K, F)
                res.check("z1-defect", got == want, f"defect {got} != {want} at n={n}")
                res.work += len(K) * n
        seq1 = state["seq1"]
        for n in range(2, len(seq1.sets) + 1):
            self._tempered(res, seq1, n, 1)
        for n in Z2_TEMPERED_SIDES:
            self._tempered(res, state["seq2"], n, 2)
        for n, (inner, outer) in state["z3_boxes"].items():
            got = Fraction(grp.product_set_size(grp.inverse_set(inner), outer), len(outer))
            want = _tempered_closed_form(n, 3)
            res.check("z3-tempered", got == want, f"tempered {got} != {want} at n={n}")
            res.work += len(inner) * len(outer)
        gens, hseq = state["generators"], state["hseq"]
        for n, want in ((2, Fraction(5, 4)), (4, Fraction(153, 256))):
            got = fol.folner_defect(gens, hseq.set(n))
            res.check("heisenberg-defect", got == want, f"defect {got} != {want} at n={n}")
            res.work += len(gens) * len(hseq.set(n))
        return res

    @staticmethod
    def _tempered(res: PassResult, seq, n: int, d: int) -> None:
        got = fol.tempered_constant(seq, n)
        want = _tempered_closed_form(n, d)
        res.check(f"z{d}-tempered", got == want, f"tempered {got} != {want} at n={n}")
        res.work += len(seq.set(n - 1)) * len(seq.set(n))


def _nested_pairs(seq) -> int:
    """Pairs |F_{n-1}| |F_n| behind the tempered constants n = 2..N."""
    return sum(len(a) * len(b) for a, b in zip(seq.sets, seq.sets[1:]))


# ---------------------------------------------------------------- cover

def _z1(coords):
    return grp.subset_from_coords(Z1, [(c,) for c in coords])


def _grid2(xs, ys):
    return grp.subset_from_coords(Z2, [(x, y) for x in xs for y in ys])


def _heis_centers(cs):
    return grp.subset_from_coords(H, [(a, b, c) for a in (0, 2) for b in (0, 2) for c in cs])


def greedy_suite():
    """Criterion 7's greedy instances."""
    make = cov.CoverInstance.create
    return [
        ("tiling", make(Z1.box(10), [Z1.box(2)], [_z1((0, 2, 4, 6, 8))],
                        Fraction(1, 10), Fraction(1, 2))),
        ("two-scale-z1", make(Z1.box(36), [Z1.box(3), Z1.box(6)],
                              [_z1(range(0, 36, 3)), _z1(range(0, 36, 6))],
                              Fraction(1, 5), Fraction(1, 2))),
        ("overlap-chain", make(Z1.box(50), [Z1.box(5)], [_z1(range(0, 48, 4))],
                               Fraction(1, 4), Fraction(1, 2))),
        ("two-scale-z2", make(Z2.box(12, 12), [Z2.box(2, 2), Z2.box(4, 4)],
                              [_grid2(range(0, 12, 2), range(0, 12, 2)),
                               _grid2((0, 4, 8), (0, 4, 8))],
                              Fraction(1, 10), Fraction(3, 5))),
        ("threshold", make(Z1.box(3), [Z1.box(2)], [_z1((0, 1))],
                           Fraction(1, 2), Fraction(1, 2))),
        ("heisenberg", make(H.box(4, 4, 16), [H.box(2, 2, 4)], [_heis_centers((0, 4, 8))],
                            Fraction(1, 10), Fraction(1, 2))),
    ]


def random_suite():
    """Criterion 7's randomized instances."""
    make = cov.RandomCoverInstance.create
    return [
        ("two-row-degenerate", make(
            Z1.box(60), [[Z1.box(2)], [Z1.box(4)]],
            [[_z1(range(0, 56, 2))], [_z1(range(0, 56, 4))]],
            K=Z1.box(4), C=Fraction(6), alpha=Fraction(1, 2),
            delta=Fraction(1, 4), epsilon=Fraction(1, 2))),
        ("chain-q30", make(
            Z1.box(60), [[Z1.box(4)]], [[_z1(range(0, 54, 3))]],
            K=Z1.box(2), C=Fraction(6), alpha=Fraction(2, 25),
            delta=Fraction(1, 4), epsilon=Fraction(1, 2))),
        ("chain-q36", make(
            Z1.box(60), [[Z1.box(5)]], [[_z1(range(0, 48, 4))]],
            K=Z1.box(2), C=Fraction(6), alpha=Fraction(1, 10),
            delta=Fraction(3, 10), epsilon=Fraction(1, 2))),
        ("two-row-coverage", make(
            Z1.box(90), [[Z1.box(3)], [Z1.box(6)]],
            [[_z1(range(57, 90, 3))], [_z1(range(0, 60, 12))]],
            K=Z1.box(12), C=Fraction(6), alpha=Fraction(9, 20),
            delta=Fraction(1, 5), epsilon=Fraction(1, 2))),
        ("z2-tiling", make(
            Z2.box(12, 12), [[Z2.box(3, 3)]], [[_grid2((0, 3, 6, 9), (0, 3, 6, 9))]],
            K=Z2.box(3, 3), C=Fraction(6), alpha=Fraction(1, 2),
            delta=Fraction(3, 25), epsilon=Fraction(1, 2))),
        ("heisenberg", make(
            H.box(4, 4, 16), [[H.box(2, 2, 4)]], [[_heis_centers((0, 4, 8))]],
            K=H.box(2, 2, 2), C=Fraction(4), alpha=Fraction(3, 10),
            delta=Fraction(3, 20), epsilon=Fraction(1, 2))),
    ]


def negative_controls() -> dict:
    """Criterion 7's instances whose conclusions must be reported failing."""
    return {
        "chain-fail": cov.CoverInstance.create(
            Z1.box(110), [Z1.box(10)], [_z1(range(0, 108, 9))],
            Fraction(1, 10), Fraction(1, 2)),
        "escape": cov.CoverInstance.create(
            Z1.box(10), [Z1.box(3)], [_z1((8,))], Fraction(1, 10), Fraction(1, 2)),
        "forced-q1": cov.RandomCoverInstance.create(
            Z1.box(60), [[Z1.box(4)]], [[_z1(range(0, 54, 3))]],
            K=Z1.box(9), C=Fraction(6), alpha=Fraction(4, 5),
            delta=Fraction(1, 4), epsilon=Fraction(1, 2)),
    }


class Cover:
    name = "cover"
    work_unit = "samples"
    phase = ("covering.sample_many", "covering.verify_random_cover")
    dominant = ("covering.check_hypotheses",)

    def setup(self, ctx: Context) -> dict:
        return {
            "random_cfg": ctx.parse("cover_random.cfg", "cover-demo"),
            "greedy_cfg": ctx.parse("cover_greedy.cfg", "cover-demo"),
            "greedy": greedy_suite(),
            "random": random_suite(),
            "negative": negative_controls(),
        }

    def run_pass(self, state: dict, ctx: Context) -> PassResult:
        res = PassResult()
        rcfg, gcfg = state["random_cfg"], state["greedy_cfg"]

        def expect_random(rows, fields):
            if fields["samples"] != str(rcfg.get("samples")):
                return f"samples {fields['samples']} != {rcfg.get('samples')}"
            return None

        config_op(res, ctx, "cover-random", "cover-demo", "cover_random.cfg",
                  ctx.seed_for("cover-random", rcfg.get("seed")), expect_random)
        res.work += rcfg.get("samples")

        def expect_greedy(rows, fields):
            # The largest tiles partition the ambient interval exactly, so
            # every smaller candidate is rejected (see the config).
            ambient = gcfg.get("ambient_n")
            shapes = {k: v for k, v in gcfg.values.items() if re.fullmatch(r"shape_\d+", k)}
            centers = [gcfg.get(k.replace("shape", "centers")) for k in shapes]
            largest = max(shapes, key=shapes.get)
            want = {
                "picks": str(len(gcfg.get(largest.replace("shape", "centers")))),
                "total_size": str(ambient),
                "union_size": str(ambient),
                "coverage_rhs": str(min(map(len, centers)) - gcfg.get("delta") * ambient),
            }
            got = {k: fields[k] for k in want}
            return None if got == want else f"greedy summary {got} != {want}"

        config_op(res, ctx, "cover-greedy", "cover-demo", "cover_greedy.cfg",
                  ctx.seed_for("cover-greedy", gcfg.get("seed")), expect_greedy)

        for name, inst in state["greedy"]:
            if not res.check(f"greedy-{name}", cov.check_hypotheses(inst).ok, "hypotheses fail"):
                continue
            report = cov.verify_greedy_cover(inst, cov.greedy_cover(inst))
            bound = min(len(A) for A in inst.centers) - inst.delta * len(inst.ambient)
            res.check(f"greedy-{name}", report.ok and report.coverage_rhs == bound,
                      f"ok={report.ok}, coverage bound {report.coverage_rhs} != {bound}")
        for name, inst in state["random"]:
            if not res.check(f"random-{name}", cov.check_hypotheses(inst).ok, "hypotheses fail"):
                continue
            sols = cov.sample_many(inst, RANDOM_SUITE_SAMPLES,
                                   ctx.seed_for(f"random-{name}", 101))
            report = cov.verify_random_cover(inst, sols)
            res.check(f"random-{name}", report.ok, f"conclusions fail: {report}")
            res.work += RANDOM_SUITE_SAMPLES

        neg = state["negative"]
        report = cov.verify_greedy_cover(neg["chain-fail"], cov.greedy_cover(neg["chain-fail"]))
        res.check("negative-chain-fail", not report.disjointness_ok,
                  "disjointness passed on the chain control")
        try:
            cov.greedy_cover(neg["escape"])
            raised = False
        except cov.HypothesisError:
            raised = True
        res.check("negative-escape", raised, "no HypothesisError on the escaping shape")
        inst = neg["forced-q1"]
        sols = cov.sample_many(inst, NEGATIVE_Q1_SAMPLES, ctx.seed_for("forced-q1", 23))
        report = cov.verify_random_cover(inst, sols)
        res.check("negative-forced-q1", not report.multiplicity_ok,
                  "multiplicity passed on the q = 1 control")
        res.work += NEGATIVE_Q1_SAMPLES
        return res


# ---------------------------------------------------------------- pointwise

def _criterion_models():
    return (
        rds.BernoulliModel.create(Z2, [Fraction(7, 10), Fraction(3, 10)]),
        rds.RandomAlphabetModel.create(
            Z2, [Fraction(1, 2), Fraction(1, 2)],
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(9, 10), Fraction(1, 10)]]),
        rds.MarkovModel.create([[Fraction(9, 10), Fraction(1, 10)],
                                [Fraction(2, 10), Fraction(8, 10)]]),
    )


_Z2_CHAIN_WINDOWS = {1: (1, 1), 2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
                     6: (3, 2), 7: (7, 1), 8: (4, 2), 9: (3, 3)}


class Pointwise:
    name = "pointwise"
    work_unit = "checks"
    phase = ()
    dominant = ("measures.cell_measure", "measures.check_invariance",
                "measures.enumerate_cells", "measures.cell_of",
                "entropy.chain_rule_terms")

    def setup(self, ctx: Context) -> dict:
        cocycle_cfg = ctx.parse("cocycle_heisenberg.cfg", "cocycle-check")
        cond_cfg = ctx.parse("cond_entropy_markov.cfg", "cond-entropy")
        cond_model = fiberent.config.build_model(cond_cfg)
        models = []
        for model in _criterion_models():
            group = model.group
            two_d = group.tag == "zd:2"
            models.append({
                "model": model,
                "mu": meas.measure_for(model),
                "xi": meas.canonical_partition(model),
                "chain_windows": {
                    size: group.box(*_Z2_CHAIN_WINDOWS[size]) if two_d else group.box(size)
                    for size in range(1, 10)
                },
                "cocycle_window": group.box(4, 4) if two_d else group.box(16),
                "invariance_window": group.box(2, 2) if two_d else group.box(3),
            })
        stationary = cond_model.stationary
        return {
            "cocycle_cfg": cocycle_cfg,
            "cond_cfg": cond_cfg,
            "cond_h_pi": shannon(stationary),
            "cond_rate": math.fsum(
                float(p) * shannon(row) for p, row in zip(stationary, cond_model.transition)),
            "models": models,
        }

    def run_pass(self, state: dict, ctx: Context) -> PassResult:
        res = PassResult()
        ccfg = state["cocycle_cfg"]

        def expect_cocycle(rows, fields):
            want = str(ccfg.get("checks"))
            return None if fields["passed"] == want else f"passed {fields['passed']} != {want}"

        config_op(res, ctx, "cocycle-heisenberg", "cocycle-check", "cocycle_heisenberg.cfg",
                  ctx.seed_for("cocycle-heisenberg", ccfg.get("seed")), expect_cocycle)
        res.work += ccfg.get("checks")

        def expect_cond(rows, fields):
            for row in rows:
                n, _, estimate = row.split(",")[:3]
                want = state["cond_h_pi"] if n == "1" else state["cond_rate"]
                if abs(float(estimate) - want) > 1e-10:
                    return f"conditional entropy at n={n} is {estimate}, closed form {want!r}"
            return None

        dcfg = state["cond_cfg"]
        config_op(res, ctx, "cond-entropy-markov", "cond-entropy", "cond_entropy_markov.cfg",
                  ctx.seed_for("cond-entropy-markov", dcfg.get("seed")), expect_cond)

        shuffler = random.Random(ctx.seed_for("chain-orders", 97))
        for m in state["models"]:
            self._chain_rule(res, m, shuffler, ctx)
        for m in state["models"]:
            self._cocycle_and_invariance(res, m, ctx)
        return res

    @staticmethod
    def _chain_rule(res: PassResult, m: dict, shuffler: random.Random, ctx: Context) -> None:
        model, mu, xi = m["model"], m["mu"], m["xi"]
        for size, window in m["chain_windows"].items():
            elements = window.sorted_elements()
            if size <= 4:
                orders = list(itertools.permutations(elements))
                point = rds.sample_point(model, ctx.seed_for(f"chain-{size}", 300 + size), 0)
            else:
                orders = []
                for _ in range(CHAIN_RULE_SAMPLED_ORDERS):
                    order = elements[:]
                    shuffler.shuffle(order)
                    orders.append(order)
                point = rds.sample_point(model, ctx.seed_for(f"chain-{size}", 400 + size), 1)
            totals = []
            for order in orders:
                residual = ent.chain_rule_residual(mu, xi, window, order, point)
                totals.append(math.fsum(ent.chain_rule_terms(mu, xi, window, order, point)))
                res.check("chain-rule", residual <= 1e-10,
                          f"{model.kind} |F|={size}: residual {residual}")
                res.work += 1
            res.check("chain-rule-order-invariance", max(totals) - min(totals) <= 1e-10,
                      f"{model.kind} |F|={size}: totals spread {max(totals) - min(totals)}")

    @staticmethod
    def _cocycle_and_invariance(res: PassResult, m: dict, ctx: Context) -> None:
        model, group = m["model"], m["model"].group
        g_seed = ctx.seed_for(f"cocycle-g-{model.kind}", 71)
        x_seed = ctx.seed_for(f"cocycle-x-{model.kind}", 72)
        window = m["cocycle_window"]
        for i in range(COCYCLE_CHECKS_PER_MODEL):
            g1 = grp.random_element(group, 4, g_seed, "g1", i)
            g2 = grp.random_element(group, 4, g_seed, "g2", i)
            point = rds.sample_point(model, x_seed, i)
            res.check("cocycle", rds.check_cocycle(model, g1, g2, point, window),
                      f"{model.kind}: cocycle law fails at check {i}")
            res.work += 1
        inv_seed = ctx.seed_for(f"invariance-g-{model.kind}", 73)
        omega_base = ctx.seed_for(f"invariance-omega-{model.kind}", 5000)
        for i in range(INVARIANCE_CHECKS_PER_MODEL):
            omega = rds.sample_point(model, (omega_base + i) % 2 ** 64, i).omega
            g = grp.random_element(group, 3, inv_seed, "inv", i)
            ok = meas.check_invariance(m["mu"], g, omega, m["xi"], m["invariance_window"])
            res.check("invariance", ok, f"{model.kind}: invariance fails at check {i}")
            res.work += 1


PARTS = {p.name: p for p in (Smb(), Folner(), Cover(), Pointwise())}


class Workload:
    """A benchmark workload: two parts, run one after the other in each pass.

    Pairing the parts gives two workloads whose runs are long enough to
    average over the machine's slow and fast spells (see README.md),
    while every part is still timed end to end: `smb` with `pointwise`
    share the rng/rds layer, windowed and scalar, and `folner` with
    `cover` share the set algebra of `groups`.
    """

    def __init__(self, name: str, parts):
        self.name = name
        self.parts = parts

    def setup(self, ctx: Context) -> list:
        return [part.setup(ctx) for part in self.parts]

    def probes(self, states: list, ctx: Context) -> list:
        return [part.probe(state, ctx) for part, state in zip(self.parts, states)
                if hasattr(part, "probe")]


WORKLOADS = {w.name: w for w in (
    Workload("smb-pointwise", (PARTS["smb"], PARTS["pointwise"])),
    Workload("folner-cover", (PARTS["folner"], PARTS["cover"])),
)}
