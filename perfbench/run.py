"""fiberent benchmark: two workloads of two parts each, checked outputs,
end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload smb-pointwise --seed 1 --seconds 45 --trace 0

Run it from anywhere inside a checkout that has `src/fiberent` and
`configs/`; the package is imported from that checkout's `src`, nothing
is installed.  Workloads (see workloads.py and BENCHMARK.json):

  smb-pointwise  parts smb (shipped SMB configs through the CLI plus the
                 Markov SMB) and pointwise (cocycle and conditional-entropy
                 configs plus criteria 4 and 5)
  folner-cover   parts folner (Folner configs plus the criterion 6 exact
                 sweeps) and cover (cover configs plus criterion 7)

Load is a closed loop from one client process with workers = 1.  With
--trace 0 the run measures, in fresh interpreters, the set-up time three
times and the timed passes once, and prints the end-to-end metrics: the
pass time in units of a reference loop timed alongside it (wall_ref),
set-up time and peak memory.  With
--trace 1 it prints the per-layer metrics of a traced pass of every
part.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A summary with the
machine and code it ran on goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
WORKLOADS = {"smb-pointwise": ("smb", "pointwise"), "folner-cover": ("folner", "cover")}
WORK_NAMES = {"smb": "sites", "folner": "pairs", "cover": "samples", "pointwise": "checks"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the shipped seeds)")
    parser.add_argument("--seconds", type=float, default=45.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class ChildError(RuntimeError):
    pass


def run_child(mode: str, args, deadline: float) -> dict:
    seed = "-" if args.seed is None else str(args.seed)
    cmd = [sys.executable, str(BENCH / "child.py"), mode, args.workload, seed, str(args.seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} process exceeded the {DEADLINE_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise ChildError(f"{mode} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_identity() -> dict:
    """Commit (when the checkout is a git work tree), source digest, line count."""
    sources = sorted((ROOT / "src" / "fiberent").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "src_fiberent_lines": lines}


def end_to_end(args, deadline: float) -> tuple:
    setups = [run_child("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    loop = run_child("loop", args, deadline)
    setups.append(loop["setup_s"])
    passes = loop["passes"]
    # Means, not medians: the machine alternates between fast and slow
    # spells of several seconds, and a median over a few passes jumps to
    # whichever spell held most of them.  Spells of a minute or more move
    # whole runs; dividing by the reference loop, sampled evenly over the
    # same passes, takes them out.
    wall_s = statistics.fmean(p["wall_s"] for p in passes)
    reference_s = statistics.fmean(loop["reference_samples_s"])
    metrics = {
        "wall_ref": wall_s / reference_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    throughput = {}
    for part in WORKLOADS[args.workload]:
        work = sum(p["parts"][part]["work"] for p in passes)
        busy = sum(p["parts"][part]["phase_s"] for p in passes)
        throughput[f"{part}.{WORK_NAMES[part]}_per_s"] = work / busy
    detail = {"wall_s": wall_s, "reference_loop_s": reference_s, "setup_samples_s": setups,
              "throughput": throughput, **loop}
    return metrics, detail


def report_lines(args, metrics: dict, detail: dict, units: dict) -> list:
    attempted, failed = detail["attempted"], detail["failed"]
    lines = [f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
             f"(closed loop, 1 client, workers=1)"]
    if args.trace:
        for name, value in metrics.items():
            lines.append(f"  {name:40s} {value:.6g} {units[name]}")
    else:
        passes = detail["passes"]
        walls = [p["wall_s"] for p in passes]
        lines += [
            f"  wall_ref    {metrics['wall_ref']:.2f}  (a pass over one reference loop, "
            f"{detail['reference_loop_s'] * 1e3:.2f} ms)",
            f"  wall_s      {detail['wall_s']:.4f} s  (mean of {len(passes)} passes; median "
            f"{statistics.median(walls):.4f} s, max {max(walls):.4f} s)",
            f"  setup_s     {metrics['setup_s']:.4f} s  "
            f"(median of {len(detail['setup_samples_s'])} fresh interpreters)",
            f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MiB  (fresh process, one pass)",
        ]
        for part in WORKLOADS[args.workload]:
            part_s = statistics.fmean(p["parts"][part]["wall_s"] for p in passes)
            name = f"{part}.{WORK_NAMES[part]}_per_s"
            lines.append(f"  {part:10s}  {part_s:.4f} s a pass, "
                         f"{WORK_NAMES[part]}_per_s {detail['throughput'][name]:.6g} 1/s")
        probes = detail["probes"]
        if probes:
            probe_failed = sum(probe["exit"] != 0 for probe in probes)
            total = attempted + len(probes)
            for probe in probes:
                lines.append(f"  {probe['config']} CLI run: exit {probe['exit']} "
                             f"{probe['stderr']}")
            lines.append(
                f"  error_rate  {(failed + probe_failed) / total:.6f}  "
                f"({failed + probe_failed}/{total} operations, counting the CLI runs above)")
            lines.append(f"              measured operations alone: {failed}/{attempted}")
            return lines
    lines.append(f"  error_rate  {failed / attempted:.6f}  ({failed}/{attempted} operations)")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "fiberent" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} has no src/fiberent or configs to benchmark", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    try:
        if args.trace:
            detail = run_child("trace", args, deadline)
            metrics = detail.pop("metrics")
        else:
            metrics, detail = end_to_end(args, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 1
    for failure in detail["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    for line in report_lines(args, metrics, detail, units):
        print(line)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), **detail.pop("versions"),
        **code_identity(),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "detail": detail,
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
