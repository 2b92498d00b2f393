"""One fresh interpreter of the benchmark; run.py starts it and reads the
JSON object on the last line of its standard output.

    python3 perfbench/child.py <mode> <workload> <seed or -> <seconds>

Modes:
  setup  import fiberent.cli, parse the workload's configs and build its
         inputs; report the time taken (one setup_s sample).
  loop   the same set-up, then one warm-up pass, whose artifacts are the
         reference for byte comparison and after which the peak resident
         memory is read, then timed passes (closed loop, one client,
         workers = 1) for the given seconds.  A pass runs each of the
         workload's parts once.  A timer interrupts the passes every
         0.8 s to time a fixed reference loop, whose time is taken out of
         the pass times.
  trace  set up and warm up every part, time one untraced pass of the
         named workload, then run one pass of each part with every layer
         wrapped in spans.  Each per-layer metric is a total over the four
         traced part passes, so every layer is measured on the part that
         exercises it whichever workload was named.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MAX_FAILURE_DETAILS = 20


def main(argv) -> int:
    mode, name, seed_arg, seconds = argv[1], argv[2], argv[3], float(argv[4])
    seed = None if seed_arg == "-" else int(seed_arg)
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports fiberent.cli and its dependencies

    import fiberent

    if not Path(fiberent.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"fiberent imported from {fiberent.__file__}, not from this checkout")
    workload = workloads.WORKLOADS[name]
    ctx = workloads.Context(ROOT, seed, OUT / name)
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    states = workload.setup(ctx)
    setup_s = time.perf_counter() - started
    if mode == "setup":
        emit({"setup_s": setup_s})
    elif mode == "loop":
        emit({"setup_s": setup_s, **loop(workload, states, ctx, seconds)})
    elif mode == "trace":
        emit(trace(workloads, workload, states, ctx, seed))
    else:
        raise ValueError(f"unknown mode {mode}")
    return 0


class Tally:
    """Operations attempted and failed, over every pass of the process."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, result) -> None:
        self.attempted += len(result.ops)
        self.failures.extend(f"{op.name}: {op.detail}" for op in result.ops if not op.ok)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:MAX_FAILURE_DETAILS],
        }


# Seconds of wall time between two reference_loop() calls in the timed loop.
REFERENCE_INTERVAL_S = 0.8


def reference_loop() -> int:
    """A fixed stdlib-only loop, about 45 ms on a 2-core x86-64 machine.

    Run every REFERENCE_INTERVAL_S during the timed passes, it tracks how
    fast the machine runs at that moment; fiberent's code never runs inside
    it.  Its mix follows the kinds of work fiberent does: tuple keys in
    dicts and sets, Fractions and BLAKE2b, then a set of small objects a
    few MiB large, as product_set builds, which slows down with the shared
    caches as fiberent's set algebra does.
    """
    counts: dict = {}
    seen = set()
    total = Fraction(0)
    digest = 0
    for i in range(5000):
        key = (i % 101, i % 7, i % 13)
        counts[key] = counts.get(key, 0) + i
        seen.add(key)
        if i % 40 == 0:
            total += Fraction(i % 17 + 1, i % 23 + 2)
        if i % 4 == 0:
            h = hashlib.blake2b(i.to_bytes(8, "little"), digest_size=8).digest()
            digest ^= int.from_bytes(h, "little")
    points = frozenset(("zd", (i % 211, i // 211 % 223, i * 7919 % 100003))
                       for i in range(30000))
    hits = sum(("zd", (i % 211, i // 211 % 223, i * 7919 % 100003)) in points
               for i in range(0, 60000, 2))
    return len(counts) + len(seen) + total.denominator + digest + hits


class Reference:
    """Calls reference_loop() from a SIGALRM handler every REFERENCE_INTERVAL_S.

    The handler runs between two bytecodes of whatever fiberent is doing,
    so the samples are spread evenly over the timed passes, inside long
    operations too.  `spent_s` is the time taken by the handler, which the
    caller takes out of the pass times.
    """

    def __init__(self):
        self.samples: list = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        # Without the cyclic collector, which would otherwise now and then
        # walk fiberent's whole heap inside the sample.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def loop(workload, states, ctx, seconds: float) -> dict:
    import layers
    from tracer import Tracer

    # Spans only around each part's throughput phase: a few calls a pass.
    phase = Tracer()
    phase_names = {name for part in workload.parts for name in part.phase}
    layers.install(phase, [t for t in layers.TARGETS if t[0] in phase_names])
    tally = Tally()

    reference = Reference()

    def one_pass() -> dict:
        parts = {}
        wall = 0.0
        for part, state in zip(workload.parts, states):
            phase.reset()
            spent = reference.spent_s
            t0 = time.perf_counter()
            result = part.run_pass(state, ctx)
            part_s = time.perf_counter() - t0 - (reference.spent_s - spent)
            wall += part_s
            tally.add(result)
            busy = part_s
            if part.phase:
                busy = layers.covered_time(phase, phase.arrays(), part.phase, 0, len(phase.start))
            parts[part.name] = {"wall_s": part_s, "phase_s": busy, "work": result.work}
        return {"wall_s": wall, "parts": parts}

    one_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = []
    t0 = time.perf_counter()
    with reference:
        while True:
            passes.append(one_pass())
            elapsed = time.perf_counter() - t0
            # End at the pass boundary nearest to `seconds`.
            if elapsed + statistics.median(p["wall_s"] for p in passes) / 2 > seconds:
                break
    phase.uninstall()
    return {
        "peak_rss_mb": peak_rss_mb,
        "reference_samples_s": reference.samples,
        "passes": passes,
        "probes": workload.probes(states, ctx),
        "versions": versions(),
        **tally.as_dict(),
    }


def trace(workloads, named, named_states, named_ctx, seed) -> dict:
    import layers
    from tracer import Tracer

    tally = Tally()
    runs = []
    for part in workloads.PARTS.values():
        if part in named.parts:
            state, ctx = named_states[named.parts.index(part)], named_ctx
        else:
            ctx = workloads.Context(ROOT, seed, OUT / part.name)
            ctx.out_dir.mkdir(parents=True, exist_ok=True)
            state = part.setup(ctx)
        tally.add(part.run_pass(state, ctx))
        runs.append((part, state, ctx))
    t0 = time.perf_counter()
    for part, state in zip(named.parts, named_states):
        tally.add(part.run_pass(state, named_ctx))
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    layers.install(tracer)
    bounds = {}
    for part, state, ctx in runs:
        first = len(tracer.start)
        with tracer.span(f"pass.{part.name}"):
            tally.add(part.run_pass(state, ctx))
        bounds[part.name] = (first, len(tracer.start))
    tracer.uninstall()

    metrics = layers.layer_metrics(tracer)
    cols = tracer.arrays()
    traced_wall = {}
    for part, _, _ in runs:
        first, last = bounds[part.name]
        wall = float(cols["duration"][first])
        traced_wall[part.name] = wall
        covered = layers.covered_time(tracer, cols, part.dominant, first + 1, last)
        metrics[f"{part.name}.dominant_share"] = covered / wall
    named_traced_s = sum(traced_wall[part.name] for part in named.parts)
    metrics["traced_wall_s"] = named_traced_s
    metrics["trace_overhead_s"] = named_traced_s - untraced_s
    tracer.write(OUT / "spans.npz")
    return {
        "metrics": metrics,
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_wall,
        "spans": len(cols["start"]),
        "moves": {name: moves for name, _, _, moves in layers.LAYER_METRICS},
        "versions": versions(),
        **tally.as_dict(),
    }


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
