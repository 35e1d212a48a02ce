"""scripts/bench_pairs.summarize on two fixed lists of runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(ops_per_s, p50, failed, correct=True, attempted=100):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": ops_per_s, "op_p50_ms": p50}}


PARENT = [_run(40, 20, 25), _run(41, 21, 25), _run(39, 19, 25), _run(40, 22, 25)]
CHANGE = [_run(50, 18, 25), _run(49, 18, 25, correct=False), _run(51, 30, 30),
          _run(48, 17, 40, correct=False)]
BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}
BOUNDS = {"ops_per_s": 0.25, "op_p50_ms": 0.25}


def test_summary():
    out = bench_pairs.summarize({"parent": PARENT, "change": CHANGE}, BETTER, BOUNDS)
    ops = out["ops_per_s"]
    assert ops["parent"] == {"median": 40, "q1": 39.25, "q3": 40.75}
    assert ops["change"]["median"] == 49.5
    assert (ops["change_wins"], ops["within_bound"], ops["gain"]) == (4, True, True)
    p50 = out["op_p50_ms"]
    assert (p50["parent"]["median"], p50["change"]["median"]) == (20.5, 18)
    # 3 of 4 pairs won: within the bound, but no gain
    assert (p50["change_wins"], p50["within_bound"], p50["gain"]) == (3, True, False)


def test_correctness_next_to_the_metrics():
    out = bench_pairs.summarize({"parent": PARENT, "change": CHANGE}, BETTER, BOUNDS)
    parent, change = out["correctness"]["parent"], out["correctness"]["change"]
    assert parent["incorrect_runs"] == []
    assert parent["failed_share"] == {"median": 0.25, "q1": 0.25, "q3": 0.25}
    assert change["incorrect_runs"] == [1, 3]
    assert change["failed_share"]["median"] == pytest.approx(0.275)


def test_attempted_spread_next_to_the_metrics():
    # A metric that grows with the op count (peak_rss_mb while the bench
    # keeps a record per op) is read next to each side's attempted count.
    change = [_run(50, 18, 0, attempted=n) for n in (120, 100, 130, 110)]
    out = bench_pairs.summarize({"parent": PARENT, "change": change}, BETTER, BOUNDS)
    assert out["correctness"]["parent"]["attempted"] == {
        "median": 100, "q1": 100, "q3": 100}
    assert out["correctness"]["change"]["attempted"] == {
        "median": 115, "q1": 102.5, "q3": 127.5}
