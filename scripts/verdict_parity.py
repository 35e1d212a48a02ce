"""Ask the same stability questions of two checkouts and compare the answers.

    python3 scripts/verdict_parity.py --parent ../parent --change . [--count 6000]

Each case is a seeded formula (`gen_formula` over every connective, about
one in ten with `~`, or a `gen_program` program as one formula), a lattice
1/D with D from 1 to 6 (in one case of ten, D just above the largest
denominator whose connectives the compiled kernel tabulates, over at most
two atoms), an interpretation I (often a model, sometimes
with a value off the lattice), a random minimized set, a threshold of 1
or below it, `Exhaustive` or `Sampled` with a seed of either sign, and a
small or large cap.  Each side answers every case with `check_stable`,
`find_witness`, `enumerate_stable` and the shadow-rewrite route
`check_stable_via_star` (always at threshold 1, exhaustively), printing
per call the verdict JSON, the witness, the model list, or the type and
text of the error.

The interval engine is asked too, on the cases with D up to 6: it has no
kernel domains, so finer lattices only enlarge its scans (they took 85%
of its time over 6,000 cases).  The valuation is drawn from the case:
per atom t = [I(a), tu], with tu a lattice point at or above I(a) (often
1), and h either t or a lattice interval around it, so the valuation is
often a model.  Each side answers `is_n5_model`, `is_equilibrium` (its
verdict JSON, counter included), `find_h_violation` and
`enumerate_equilibrium` on the case's lattice, the last three under the
case's cap lowered to at most 5,000: so `enumerate_equilibrium` scans
only where its pruned pool product is that small, and refuses elsewhere
before building a pool.  `enumerate_equilibrium` is asked twice, over
f's atoms in formula order and reversed, so both sides scan a second
slot order.  The script exits 1 on any difference and shows the first
few.

The summary counts the cases on each kernel domain, as `find_witness`
compiles f at I: tables, integer numerators above the table bound, or
Fractions (or none, where f holds a strong negation).  Connectives off the
tables, the reduct's implication caps among them, run only on the last
two.
"""
from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SIDE = r"""
import json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from fuzzysm import (Exhaustive, Interpretation, Lattice, Sampled, check_stable,
                     check_stable_via_star, enumerate_equilibrium, enumerate_stable,
                     equilibrium_verdict_to_json, find_h_violation, find_witness,
                     interpretation_to_json, is_equilibrium, is_n5_model,
                     parse_formula, signature_of, valuation_from_json,
                     valuation_to_json, verdict_to_json)

def show(call):
    try:
        return call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

for case in json.load(open(sys.argv[2], encoding="utf-8")):
    f = parse_formula(case["formula"])
    i = Interpretation({a: Fraction(v) for a, v in case["i"].items()})
    y, lattice, cap = Fraction(case["threshold"]), Lattice(case["d"]), case["cap"]
    minimized = case["minimized"]
    strategy = Exhaustive() if case["seed"] is None else Sampled(case["samples"], case["seed"])

    def witness():
        j = find_witness(f, i, minimized, y, lattice, strategy, cap)
        return None if j is None else interpretation_to_json(j)

    def h_violation():
        counter = find_h_violation(v, f, lattice, eq_cap)
        return None if counter is None else valuation_to_json(counter)

    answers = [
        show(lambda: verdict_to_json(check_stable(f, i, minimized, y, lattice, strategy, cap))),
        show(witness),
        show(lambda: [interpretation_to_json(m) for m in
                      enumerate_stable(f, minimized, y, lattice, cap=cap)]),
        show(lambda: verdict_to_json(check_stable_via_star(f, i, minimized, lattice, cap))),
    ]
    if case["valuation"] is None:
        print(json.dumps(answers))
        continue
    v, eq_cap = valuation_from_json(case["valuation"]), min(cap, 5000)
    answers += [
        show(lambda: is_n5_model(v, f)),
        show(lambda: equilibrium_verdict_to_json(is_equilibrium(v, f, lattice, eq_cap))),
        show(h_violation),
        show(lambda: [valuation_to_json(m) for m in
                      enumerate_equilibrium(f, lattice, cap=eq_cap)]),
        show(lambda: [valuation_to_json(m) for m in enumerate_equilibrium(
            f, lattice, signature_of(f)[::-1], cap=eq_cap)]),
    ]
    print(json.dumps(answers))
"""


DOMAINS = ("table", "integer above the table bound", "Fraction", "not compiled")


def domain(f, i: dict, lattice) -> str:
    """The kernel domain of f compiled at I, one of DOMAINS."""
    from fuzzysm import StrongNegationError, signature_of
    from fuzzysm.compiled import _TABLE_BOUND, compile_formula

    sig = signature_of(f, extra=tuple(i))
    try:
        prog = compile_formula(f, sig, lattice, [i[a] for a in sig])
    except StrongNegationError:
        return DOMAINS[3]
    if not prog.integer:
        return DOMAINS[2]
    return DOMAINS[0] if lattice.denominator <= _TABLE_BOUND else DOMAINS[1]


def two_worlds(seed: int, i: dict, lattice) -> dict:
    """The case's valuation in JSON form: per atom t = [I(a), tu] and h
    either t or a lattice interval around it.  It draws from a stream of
    its own, so the other fields of a case do not depend on it."""
    rng = random.Random(seed)
    points = list(lattice.points())
    out = {"h": {}, "t": {}}
    for a, lo in i.items():
        hi = 1 if rng.random() < 0.6 else rng.choice([x for x in points if x >= lo])
        out["t"][a] = [str(lo), str(hi)]
        if rng.random() < 0.5:
            lo = rng.choice([x for x in points if x <= lo])
            hi = rng.choice([x for x in points if x >= hi])
        out["h"][a] = [str(lo), str(hi)]
    return out


def cases(count: int) -> list[dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from fuzzysm import Lattice, evaluate, print_formula, program_to_formula, signature_of
    from fuzzysm.compiled import _TABLE_BOUND
    from fuzzysm.generators import ALL_OPERATORS, gen_formula, gen_program

    rng = random.Random(19)
    out = []
    for _ in range(count):
        tabled = rng.random() < 0.9
        d = rng.randint(1, 6) if tabled else _TABLE_BOUND + rng.randint(1, 2)
        lattice = Lattice(d)
        sig = ("p", "q", "r", "s")[:rng.randint(1, 4 if tabled else 2)]
        seed = rng.randrange(2 ** 32)
        if rng.random() < 0.3:
            conj = rng.choice(("&m", "&l", "&p"))
            f = program_to_formula(gen_program(seed, sig, 4, conj, lattice), conj)
        else:
            f = gen_formula(seed, sig, rng.randint(1, 3), ALL_OPERATORS,
                            allow_strongneg=rng.random() < 0.1, lattice=lattice)
        y = Fraction(1) if rng.random() < 0.6 else rng.choice(
            (Fraction(rng.randint(1, 7), 8), Fraction(rng.randint(1, d), d)))
        points = list(lattice.points())
        # Up to 20 draws for a model; the last draw when none is one.
        for _ in range(20):
            i = {a: rng.choice(points) for a in sig}
            try:
                if evaluate(f, i) >= y:
                    break
            except Exception:
                break  # a strong negation: any I will do
        if rng.random() < 0.25:
            i[rng.choice(sig)] = Fraction(rng.randint(0, 2 * d + 1), 2 * d + 1)
        # Mostly atoms of f, which enumerate_stable's signature holds.
        atoms = signature_of(f) if rng.random() < 0.8 else sig
        minimized = rng.choice((None, [a for a in atoms if rng.random() < 0.6]))
        sampled = rng.random() < 0.5
        out.append({
            "formula": print_formula(f),
            "i": {a: str(v) for a, v in i.items()},
            "minimized": minimized,
            "threshold": str(y),
            "d": d,
            "seed": rng.randint(-50, 50) if sampled else None,
            "samples": rng.randint(1, 40),
            "cap": rng.choice((5, 40, 10 ** 6, 10 ** 6)),
            "domain": domain(f, i, lattice),
            "valuation": two_worlds(seed, i, lattice) if tabled else None,
        })
    return out


def run_side(root: Path, path: str) -> list[str]:
    out = subprocess.run([sys.executable, "-c", _SIDE, str(root / "src"), path],
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--count", type=int, default=6000)
    args = parser.parse_args(argv)
    todo = cases(args.count)
    with tempfile.NamedTemporaryFile("w", suffix=".json", encoding="utf-8") as fh:
        json.dump(todo, fh)
        fh.flush()
        parent, change = run_side(args.parent, fh.name), run_side(args.change, fh.name)
    differ = [k for k, (a, b) in enumerate(zip(parent, change)) if a != b]
    answers = [json.loads(line) for line in change]
    unstable = sum(isinstance(a[0], dict) and a[0]["status"] == "unstable" for a in answers)
    interval = [a[5]["status"] for a in answers if len(a) > 4 and isinstance(a[5], dict)]
    errors = sum(isinstance(x, str) for a in answers for x in a)
    domains = ", ".join(f"{sum(c['domain'] == d for c in todo)} {d}" for d in DOMAINS)
    print(f"{len(todo)} cases, {sum(map(len, answers))} calls: {unstable} unstable verdicts, "
          f"{interval.count('equilibrium')} equilibrium and "
          f"{interval.count('not_h_minimal')} not_h_minimal interval verdicts, "
          f"{errors} errors; kernel domains: {domains}; {len(differ)} cases differ")
    for k in differ[:3]:
        print(json.dumps(todo[k]), parent[k][:300], change[k][:300], sep="\n  ")
    return 1 if differ or len(parent) != len(change) else 0


if __name__ == "__main__":
    sys.exit(main())
