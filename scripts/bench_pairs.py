"""Run the benchmark in alternating parent/change pairs and record the
medians and quartiles of every metric as one BENCH JSON file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload large --pairs 10 --seconds 30 --out BENCH_<N>.json

--parent and --change are two source checkouts; each run is
`python3 bench/run.py --workload W --seed S --seconds T --trace X` in
that checkout, with S the pair index.  Which side runs first alternates
from pair to pair, so slow periods of the host fall on both sides.  The
metrics' directions and bounds come from the parent's BENCHMARK.json.
--out is updated in place after every pair, so a run that fails keeps
the pairs before it: one entry per workload (and per traced workload),
so the workloads can be run one at a time.  Every run's raw result is
kept in the file next to the summary.

For each end-to-end metric the summary also gives its `bound`,
`within_bound` (the change's median is worse than the parent's by no
more than the bound, as a fraction of the parent's median) and `gain`
(the change wins at least nine tenths of the pairs, and the medians
differ by more than the parent's interquartile range).  Next to the
metrics, `correctness` gives for each side the indices of the runs whose
`correct` is false, the spread of the failed share (failed over
attempted operations), so that a correctness regression shows in the
summary too, and the spread of the attempted operations: a metric that
grows with the op count, such as `peak_rss_mb` while the benchmark
keeps a record per op, shows next to the count that drives it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def bench_once(root: Path, workload: str, seed: int, seconds: float,
               trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def correctness(runs: list[dict]) -> dict:
    return {"incorrect_runs": [k for k, r in enumerate(runs) if not r["correct"]],
            "attempted": spread([r["attempted"] for r in runs]),
            "failed_share": spread([r["failed"] / r["attempted"] if r["attempted"] else 0.0
                                    for r in runs])}


def summarize(runs: dict, better: dict, bounds: dict) -> dict:
    parent, change = runs["parent"], runs["change"]
    out = {"correctness": {side: correctness(runs[side]) for side in ("parent", "change")}}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        row = {"parent": spread(p), "change": spread(c)}
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            row["better"] = better[name]
            row["change_wins"] = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        if name in bounds:
            pm, cm = row["parent"]["median"], row["change"]["median"]
            worse = sign * (pm - cm)
            row["bound"] = bounds[name]
            row["within_bound"] = worse <= bounds[name] * abs(pm)
            row["gain"] = (10 * row["change_wins"] >= 9 * len(p) and -worse > 0
                           and abs(cm - pm) > row["parent"]["q3"] - row["parent"]["q1"])
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list] = {"parent": [], "change": []}
    key = args.workload + (" traced" if args.trace else "")
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench_once(sides[side], args.workload, pair,
                                         args.seconds, args.trace))
        print(f"pair {pair}: " + ", ".join(
            f"{side} ops_per_s {runs[side][-1]['metrics'].get('ops_per_s', 0):.2f}"
            for side in order), flush=True)
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record.setdefault("python", platform.python_version())
        record.setdefault("machine", f"{platform.machine()}, {os.cpu_count()} cores")
        record.setdefault("workloads", {})[key] = {
            "pairs": pair + 1, "seconds": args.seconds,
            "summary": summarize(runs, better, bounds), "runs": runs}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
