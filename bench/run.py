#!/usr/bin/env python3
"""Benchmark for fuzzysm: three seeded workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload enumerate --seed 0 --seconds 30 --trace 0

Workloads (see bench/README.md): enumerate, large, equilibrium.

Load comes from this one process in a closed loop with one client: the
next operation starts when the previous one returns.  A run goes through
whole passes over the workload's operation list, in a new seeded order
each pass, until --seconds have elapsed.  Every output is checked
against its reference.

--trace 0 prints the end-to-end metrics; set-up time is the fastest of
several fresh processes that only set up, started between passes at even
intervals of the run.  --trace 1 alternates untraced
and traced passes, with the same probe operations appended to each pass
so that every layer is reached on every workload, and prints the
per-layer metrics (per traced pass).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import workloads as W
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
CLI_PROBE_REPEATS = 5
POOL_PROBE_ROUNDS = 2
POOL_PROBE_FORMULA = ("(not_s q ->r p) &m (not_s p ->r q) "
                      "&m (not_s s ->r r) &m (not_s r ->r s)")
POOL_PROBE_DENOMINATOR = 6  # 7^4 = 2401 interpretations, past the pool threshold
TAIL_BEYOND = 10


@dataclass
class Record:
    name: str
    seconds: float
    ok: bool
    error: str | None  # exception type name, "mismatch", or None
    allowed: bool  # a failure the workload allows today (Op.may_raise)
    probe: bool = False


def run_op(op, tracer, op_id=None, probe=False) -> Record:
    t0 = perf_counter()
    try:
        with tracer.op(op_id, op.name):
            out = op.run(tracer)
    except Exception as exc:  # a failed operation is recorded, not fatal
        seconds = perf_counter() - t0
        tracer.after_op()
        allowed = op.may_raise is not None and isinstance(exc, op.may_raise)
        return Record(op.name, seconds, False, type(exc).__name__, allowed, probe)
    seconds = perf_counter() - t0
    try:
        ok = bool(op.check(out))
    except Exception:  # a malformed output is a wrong answer
        ok = False
    return Record(op.name, seconds, ok, None if ok else "mismatch", False, probe)


def measure_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to the point where it
    would start the first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE)
    try:
        line = p.stdout.readline()
        t1 = perf_counter()
        p.stdout.read()
    finally:
        p.stdout.close()
        p.wait()
    if line.strip() != b"ready" or p.returncode != 0:
        raise RuntimeError(f"set-up process failed with exit code {p.returncode}")
    return t1 - t0


def tail(records: list[Record]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it, failed
    operations ranked slowest: (value, percentile, samples beyond)."""
    times = [r.seconds for r in sorted(records, key=lambda r: (not r.ok, r.seconds))]
    k = max(0, len(times) - TAIL_BEYOND - 1)
    return times[k], 100.0 * (k + 1) / len(times), len(times) - k - 1


def quiet_passes(records: list[Record], per_pass: int) -> list[Record]:
    """The records of the fastest quarter of the passes, ranked by pass
    wall time.

    The tail over all samples follows the host's slow periods, whose
    share of a run varies from run to run: over six to twelve 30-second
    runs per workload, its quartile spread was 16% on `equilibrium` and
    25% on `enumerate`.  Over the fastest quarter of the passes it was 6%,
    9-12% and 10% on `equilibrium`, `enumerate` and `large`; over the
    faster half, `large` spread 17-30%, since a pass of four operations
    is often in a slow period for half of a run.
    """
    passes = [records[k:k + per_pass] for k in range(0, len(records), per_pass)]
    passes.sort(key=lambda p: sum(r.seconds for r in p))
    return [r for p in passes[:max(1, len(passes) // 4)] for r in p]


def per_op(records: list[Record]) -> list[tuple[bool, float, float]]:
    """For each distinct operation: (failed in some pass, fastest time
    across passes, share of passes in which it was correct).

    The fastest pass is the one other load on the host disturbed least.
    The host's speed changes by up to 1.7x between periods of a few
    seconds; over the same runs, statistics of each operation's fastest
    time spread 2-6x less than statistics of its median time.
    """
    by_op: dict[str, list[Record]] = {}
    for r in records:
        by_op.setdefault(r.name, []).append(r)
    return [(not all(x.ok for x in rs), min(x.seconds for x in rs),
             sum(x.ok for x in rs) / len(rs)) for rs in by_op.values()]


def pass_rate(records: list[Record]) -> float:
    """Correct operations per second over a pass made of each operation's
    fastest time."""
    ops = per_op(records)
    return sum(ok for _, _, ok in ops) / sum(t for _, t, _ in ops)


def median_op(records: list[Record]) -> float:
    """Median over the distinct operations of each one's fastest time,
    failed operations ranked slowest."""
    times = [t for _, t, _ in sorted(per_op(records))]
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2


def judge(records: list[Record]) -> dict:
    attempted = len(records)
    ok = sum(r.ok for r in records)
    # Only the known deep-chain RecursionError is allowed; any other
    # exception, and any wrong answer, makes the run incorrect.
    correct = all(r.ok or r.allowed for r in records)
    return {"correct": correct, "attempted": attempted, "failed": attempted - ok}


def describe(workload, seed, records, passes) -> list[str]:
    n = len(records)
    failed = [r for r in records if not r.ok]
    lines = [f"workload={workload} seed={seed} passes={passes} ops={n} "
             f"failed_ratio={len(failed) / n:.4f} ({len(failed)} of {n} attempted)"]
    for (name, error), count in sorted(Counter((r.name, r.error) for r in failed).items()):
        lines.append(f"failed: {name} {error} x{count}")
    return lines


def run_passes(ops, rng, seconds, setup):
    """Untraced whole passes in a fresh seeded order each, until `seconds`
    pass.  Between passes, `setup()` runs whenever the next of
    SETUP_REPEATS even intervals of the run begins, and after the last
    pass until it has run SETUP_REPEATS times, so that set-up is sampled
    across the same periods of host load as the operations."""
    tracer = NullTracer()
    records: list[Record] = []
    setups: list[float] = []
    start = perf_counter()
    passes = 0
    while True:
        if perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup())
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            records.append(run_op(op, tracer))
        passes += 1
        if perf_counter() - start >= seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup())
    return records, passes, setups


def end_to_end(args, ops) -> tuple[dict, list[str]]:
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    records, passes, setups = run_passes(
        ops, rng, args.seconds, lambda: measure_setup(args.workload, args.seed))
    # The fastest set-up, like the fastest pass of each operation below:
    # over six 30-second runs of `enumerate`, the quartile spread of the
    # fastest of the set-up processes was 12% against 25% for their median.
    setup_s = min(setups)
    n = len(records)
    quiet = quiet_passes(records, len(ops))
    tail_s, pct, beyond = tail(quiet)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (pass_rate(records), "1/s"),
        "op_p50_ms": (1000 * median_op(records), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "correct_ratio": (sum(r.ok for r in records) / n, "ratio"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    result = judge(records)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    lines = describe(args.workload, args.seed, records, passes)
    lines.append(f"op_tail_ms is p{pct:.2f} over the fastest quarter of the passes: "
                 f"{beyond} of {len(quiet)} ops beyond it")
    lines.append(f"setup_s is the fastest of {len(setups)} set-up processes: "
                 f"median {statistics.median(setups):.4f} s, max {max(setups):.4f} s")
    return result, lines


def traced(args, ops) -> tuple[dict, list[str]]:
    expected = W.load_expected()
    probes = W.probe_ops(args.workload, expected)
    pass_ops = [(op, False) for op in ops] + [(op, True) for op in probes]
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    tracer = Tracer()
    untraced_recs: list[Record] = []
    traced_recs: list[Record] = []
    start = perf_counter()
    passes = 0
    while True:
        order = list(pass_ops)
        rng.shuffle(order)
        for op, probe in order:
            untraced_recs.append(run_op(op, NullTracer(), probe=probe))
        tracer.install()
        try:
            for k, (op, probe) in enumerate(order):
                traced_recs.append(run_op(op, tracer, f"{passes}.{k}", probe))
        finally:
            tracer.uninstall()
        passes += 1
        if perf_counter() - start >= args.seconds:
            break
    metrics = layers.per_layer(tracer, passes)
    metrics.update(layers.cli_probes(untraced_recs, CLI_PROBE_REPEATS))
    metrics["stable.pool_speedup"] = (
        layers.pool_speedup(POOL_PROBE_FORMULA, POOL_PROBE_DENOMINATOR,
                            POOL_PROBE_ROUNDS), "ratio")
    untraced_s = sum(r.seconds for r in untraced_recs if not r.probe)
    traced_s = sum(r.seconds for r in traced_recs if not r.probe)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.json")
    records = untraced_recs + traced_recs
    result = judge(records)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    lines = describe(args.workload, args.seed, records, passes)
    if tracer.absent:
        lines.append("absent: " + ", ".join(tracer.absent))
    lines += [f"broken: {b}" for b in sorted(tracer.broken)]
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times set-up)")
    args = parser.parse_args(argv)

    if not (SRC / "fuzzysm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fuzzysm'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    ops = W.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    result, lines = (traced if args.trace else end_to_end)(args, ops)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
