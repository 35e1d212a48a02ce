"""Per-layer metrics of the traced run, and the probes that time layers
the tracer cannot see from inside this process.

Times and counts are per traced pass.  BENCHMARK.json lists the metrics;
bench/README.md says which end-to-end metric each should move.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import ROOT, SRC


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, passes: int) -> dict:
    """Metrics from the tracer's totals and counts, per traced pass."""
    def calls(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[0] / passes

    def seconds(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[1] / passes

    def self_seconds(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[2] / passes

    def count(name):
        return tracer.counts[name] / passes

    m = {
        "syntax.parse_calls": (calls("syntax.parse"), "count"),
        "syntax.parse_s": (seconds("syntax.parse"), "s"),
        "syntax.parse_nodes_per_s": (
            _ratio(count("syntax.parse_nodes"), seconds("syntax.parse")), "1/s"),
        "semantics.reduct_calls": (calls("semantics.reduct"), "count"),
        "semantics.reduct_s": (seconds("semantics.reduct"), "s"),
        "semantics.reduct_nodes": (count("semantics.reduct_nodes"), "count"),
        "algebra.op_apply_calls": (count("algebra.op_apply"), "count"),
        "stable.check_calls": (calls("stable.check"), "count"),
        "stable.witness_calls": (calls("stable.witness"), "count"),
        "stable.witness_self_s": (self_seconds("stable.witness"), "s"),
        "stable.witness_candidates": (count("stable.witness_candidates"), "count"),
        "stable.witness_candidates_per_s": (
            _ratio(count("stable.witness_candidates"), seconds("stable.witness")), "1/s"),
        "stable.enumerate_s": (seconds("stable.enumerate"), "s"),
        "stable.interpretations_scanned": (
            count("stable.interpretations_scanned"), "count"),
        "stable.interpretations_per_s": (
            _ratio(count("stable.interpretations_scanned"), seconds("stable.enumerate")),
            "1/s"),
        "stable.model_ratio": (
            _ratio(count("stable.enumerate_models"),
                   count("stable.interpretations_scanned")), "ratio"),
        "transforms.nneg_s": (seconds("transforms.nneg"), "s"),
        "equilibrium.stable_side_s": (seconds("equilibrium.stable_side"), "s"),
        "equilibrium.enumerate_s": (seconds("equilibrium.enumerate"), "s"),
        "equilibrium.valuations_scanned": (
            count("equilibrium.valuations_scanned"), "count"),
        "equilibrium.valuations_per_s": (
            _ratio(count("equilibrium.valuations_scanned"),
                   seconds("equilibrium.enumerate")), "1/s"),
        "equilibrium.n5_model_calls": (calls("equilibrium.n5_model"), "count"),
        "equilibrium.n5_model_s": (seconds("equilibrium.n5_model"), "s"),
        "equilibrium.h_violation_calls": (calls("equilibrium.h_violation"), "count"),
        "equilibrium.h_violation_self_s": (self_seconds("equilibrium.h_violation"), "s"),
    }
    for layer in ("satisfies", "evaluate", "value_is_one"):
        m[f"semantics.{layer}_calls"] = (calls(f"semantics.{layer}"), "count")
        m[f"semantics.{layer}_s"] = (seconds(f"semantics.{layer}"), "s")
    for status in ("stable", "unstable", "not_a_model"):
        m[f"stable.verdicts_{status}"] = (count(f"stable.verdicts_{status}"), "count")
    return m


def cli_probes(untraced_records, repeats: int) -> dict:
    """Interpreter start and `import fuzzysm` in fresh processes (medians
    of `repeats`), and in-process main(argv) per request from the
    untraced passes (median over the mix, and per subcommand)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def child_seconds(code):
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            exit_code = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                       check=False).returncode
            times.append(perf_counter() - t0)
            if exit_code != 0:
                raise RuntimeError(f"probe {code!r} exited with {exit_code}")
        return statistics.median(times)

    bare = child_seconds("pass")
    with_import = child_seconds("import fuzzysm")
    mains = [r for r in untraced_records if r.name.startswith("cli.main/")]
    m = {
        "cli.interpreter_s": (bare, "s"),
        "cli.import_s": (with_import - bare, "s"),
        "cli.main_s": (statistics.median(r.seconds for r in mains), "s"),
    }
    for sub in ("parse", "check", "enumerate", "equilibrium", "translate"):
        m[f"cli.main_{sub}_s"] = (statistics.median(
            r.seconds for r in mains if r.name.startswith(f"cli.main/{sub}/")), "s")
    return m


def pool_speedup(formula: str, denominator: int, rounds: int) -> float:
    """enumerate_stable at jobs=1 over jobs=2 on one input past the pool
    threshold, untraced; medians over `rounds` alternating rounds."""
    from fuzzysm import Lattice, enumerate_stable, parse_formula

    f = parse_formula(formula)
    lattice = Lattice(denominator)
    times = {1: [], 2: []}
    results = {}
    for _ in range(rounds):
        for jobs in (1, 2):
            t0 = perf_counter()
            results[jobs] = enumerate_stable(f, lattice=lattice, jobs=jobs)
            times[jobs].append(perf_counter() - t0)
    if results[1] != results[2]:
        raise RuntimeError("enumerate_stable differs between jobs=1 and jobs=2")
    return statistics.median(times[1]) / statistics.median(times[2])
