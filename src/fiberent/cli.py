"""Command-line experiment runner.

Usage: fiberent <subcommand> --config <path> [--out <path>] [--seed <u64>],
with subcommands smb-run, cond-entropy, folner-check, cocycle-check,
cover-demo; smb-run also takes [--workers N].  A flag gives its config key,
over the file's value or where the file has none, before any config rule
runs; an issue with it cites line 0.

Every run writes two artifacts: a CSV of the `entropy.TraceRow`s its
runner returns, under the header of their six fields (12 significant
digits, empty fields where a field is None) at <out>, the config's out
or else <subcommand>.csv, and a `key: value` summary report at
<out>.summary, headed by the subcommand.  Each file is written to a
temporary file in its directory and then renamed over the target, so a
failing run leaves each artifact either whole or untouched, never
truncated.

Exit codes: 0 success, 2 configuration error, 3 assertion failure,
4 I/O error, 5 internal error.  Every configuration error is caught by
the parser and names its key and line; any other exception a runner
raises is a defect of fiberent, reported as an internal error with no
artifact written.  Worker count affects wall time only, never file
contents.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from .config import (_SCHEMAS, ConfigError, ExperimentConfig, build_cover, build_model,
                     decode_config, parse_config)
from .covering import greedy_cover, iter_samples, verify_greedy_cover, verify_random_cover
from .entropy import TraceRow, conditional_entropy_trace, smb_trace
from .folner import validate_sequence
from .groups import random_element
from .rds import check_cocycle, sample_point
from .rng import VERSION as RNG_VERSION, derive_seed

CSV_HEADER = "n,folner_size,estimate,target,abs_error,std_error"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTION = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def _fmt(value) -> str:
    if value is None:
        return ""
    return "%.12g" % float(value)


def _csv_text(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.n},{r.folner_size},{_fmt(r.estimate)},{_fmt(r.target)},"
                     f"{_fmt(r.abs_error)},{_fmt(r.std_error)}")
    return "\n".join(lines) + "\n"


def _summary_text(pairs) -> str:
    return "".join(f"{k}: {v}\n" for k, v in pairs)


def _windows(cfg: ExperimentConfig, group):
    """The schedule's windows, each built as a trace reads it, so a run holds one."""
    sides = cfg.get("sides") or range(1, cfg.get("n_max") + 1)
    return (group.box(*group.window_extents(s)) for s in sides)


def _run_smb(cfg: ExperimentConfig):
    model = build_model(cfg)
    trace = smb_trace(
        model, _windows(cfg, model.group), trajectories=cfg.get("trajectories"),
        seed=cfg.get("seed"), workers=cfg.get("workers"),
    )
    tolerance = cfg.get("tolerance")
    final = trace.final
    ok = tolerance is None or final.abs_error <= tolerance
    summary = [
        ("model", model.kind),
        ("group", model.group.tag),
        ("trajectories", cfg.get("trajectories")),
        ("rows", len(trace.rows)),
        ("final_estimate", _fmt(final.estimate)),
        ("target", _fmt(final.target)),
        ("final_abs_error", _fmt(final.abs_error)),
        ("tolerance", _fmt(float(tolerance)) if tolerance is not None else "none"),
    ]
    return trace.rows, summary, ok


def _run_cond_entropy(cfg: ExperimentConfig):
    model = build_model(cfg)
    trace = conditional_entropy_trace(
        model, _windows(cfg, model.group), seed=cfg.get("seed"),
        method=cfg.get("method"), samples=cfg.get("samples"),
    )
    tolerance = cfg.get("tolerance")
    checked = [r for r in trace.rows if r.n >= 2]
    ok = tolerance is None or all(r.abs_error <= tolerance for r in checked)
    worst = max((r.abs_error for r in checked), default=0.0)
    summary = [
        ("model", model.kind),
        ("method", cfg.get("method")),
        ("rows", len(trace.rows)),
        ("target", _fmt(trace.rows[0].target)),
        ("worst_abs_error_from_n2", _fmt(worst)),
        ("tolerance", _fmt(float(tolerance)) if tolerance is not None else "none"),
    ]
    return trace.rows, summary, ok


def _run_folner_check(cfg: ExperimentConfig):
    group = cfg.get("group")
    report = validate_sequence(_windows(cfg, group))
    rows = [TraceRow(n, size, float(c), None, None)
            for n, (size, c) in enumerate(zip(report.sizes[1:], report.tempered), start=2)]
    bound = cfg.get("tempered_bound")
    ok = report.ok and (bound is None or all(c <= bound for c in report.tempered))
    summary = [
        ("group", group.tag),
        ("sets", len(report.sizes)),
        ("identity_ok", report.identity_ok),
        ("nested_ok", report.nested_ok),
        ("size_ok", report.size_ok),
        ("size_strict", report.size_strict),
        ("max_tempered", report.max_tempered or "none"),  # a constant is >= 1
        ("tempered_bound", bound if bound is not None else "none"),
    ]
    return rows, summary, ok


def _run_cocycle_check(cfg: ExperimentConfig):
    model = build_model(cfg)
    group = model.group
    window = group.box(*group.window_extents(cfg.get("window_n")))
    seed = cfg.get("seed")
    checks = cfg.get("checks")
    radius = cfg.get("radius")
    passed = 0
    for i in range(checks):
        g1 = random_element(group, radius, seed, "g1", i)
        g2 = random_element(group, radius, seed, "g2", i)
        point = sample_point(model, derive_seed(seed, "cocycle"), i)
        if check_cocycle(model, g1, g2, point, window):
            passed += 1
    frac = passed / checks
    rows = [TraceRow(1, len(window), frac, 1.0, None)]
    ok = passed == checks
    summary = [
        ("model", model.kind),
        ("group", group.tag),
        ("window_size", len(window)),
        ("checks", checks),
        ("passed", passed),
    ]
    return rows, summary, ok


def _run_cover_demo(cfg: ExperimentConfig):
    inst = build_cover(cfg)
    ambient = inst.ambient
    kind = cfg.get("kind")
    hyp = inst.hypotheses
    summary = [
        ("kind", kind),
        ("ambient_size", len(ambient)),
        ("hypotheses", "pass" if hyp.ok else "fail"),
    ]
    if not hyp.ok:
        summary.extend(("hypothesis_failure", name) for name in hyp.failures)
        return [], summary, False
    if kind == "greedy":
        sol = greedy_cover(inst)
        report = verify_greedy_cover(inst, sol)
        rows = [TraceRow(1, len(ambient), float(sol.total_size), None, None)]
        summary.extend([
            ("picks", len(sol.picks)),
            ("total_size", sol.total_size),
            ("union_size", sol.union_size),
            ("disjointness_lhs", report.disjointness_lhs),
            ("disjointness_rhs", report.disjointness_rhs),
            ("disjointness_ok", report.disjointness_ok),
            ("coverage_lhs", report.coverage_lhs),
            ("coverage_rhs", report.coverage_rhs),
            ("coverage_ok", report.coverage_ok),
        ])
        return rows, summary, report.ok
    report = verify_random_cover(inst, iter_samples(inst, cfg.get("samples"), cfg.get("seed")))
    rows = [TraceRow(1, len(ambient), report.mean_total_size, None, report.total_size_se)]
    summary.extend([
        ("samples", report.samples),
        ("max_conditional_multiplicity", _fmt(report.max_conditional_multiplicity)),
        ("multiplicity_bound", _fmt(report.multiplicity_bound)),
        ("multiplicity_ok", report.multiplicity_ok),
        ("mean_total_size", _fmt(report.mean_total_size)),
        ("coverage_bound", _fmt(report.coverage_bound)),
        ("coverage_ok", report.coverage_ok),
    ])
    return rows, summary, report.ok


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`; the temporary file is removed if either step fails."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# Config keys a command-line flag may give, each where its schema has it.
_OVERRIDES = ("out", "seed", "workers")

_RUNNERS = {
    "smb-run": _run_smb,
    "cond-entropy": _run_cond_entropy,
    "folner-check": _run_folner_check,
    "cocycle-check": _run_cocycle_check,
    "cover-demo": _run_cover_demo,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberent",
        description="Convergence experiments for fiber entropy over amenable group actions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        for key in _OVERRIDES:
            if key in _SCHEMAS[name]:
                p.add_argument(f"--{key}", default=argparse.SUPPRESS, help=f"the config's {key}")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        overrides = {key: value for key, value in vars(args).items() if key in _OVERRIDES}
        cfg = parse_config(decode_config(raw), args.subcommand, overrides)
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"config error: {issue}", file=sys.stderr)
        return EXIT_CONFIG
    out_path = cfg.get("out") or f"{args.subcommand}.csv"
    try:
        rows, pairs, ok = _RUNNERS[args.subcommand](cfg)
    except Exception as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL
    summary = [("subcommand", args.subcommand), *pairs, ("assertion", "pass" if ok else "fail"),
               ("seed", cfg.get("seed")), ("rng", RNG_VERSION), ("csv", out_path)]
    try:
        _write_atomic(out_path, _csv_text(rows))
        _write_atomic(out_path + ".summary", _summary_text(summary))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    status = "ok" if ok else "assertion failed"
    print(f"{args.subcommand}: {status} ({out_path})")
    return EXIT_OK if ok else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
