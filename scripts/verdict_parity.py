"""Ask the same stability questions of two checkouts and compare the answers.

    python3 scripts/verdict_parity.py --parent ../parent --change . [--count 6000]

Each case is a seeded formula (`gen_formula` over every connective, about
one in ten with `~`, or a `gen_program` program as one formula), a lattice
1/D with D from 1 to 6, an interpretation I (often a model, sometimes
with a value off the lattice), a random minimized set, a threshold of 1
or below it, `Exhaustive` or `Sampled` with a seed of either sign, and a
small or large cap.  Each side answers every case with `check_stable`,
`find_witness` and `enumerate_stable`, printing per call the verdict JSON,
the witness, the model list, or the type and text of the error.  The
script exits 1 on any difference and shows the first few.
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
                     enumerate_stable, find_witness, interpretation_to_json,
                     parse_formula, verdict_to_json)

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

    print(json.dumps([
        show(lambda: verdict_to_json(check_stable(f, i, minimized, y, lattice, strategy, cap))),
        show(witness),
        show(lambda: [interpretation_to_json(m) for m in
                      enumerate_stable(f, minimized, y, lattice, cap=cap)]),
    ]))
"""


def cases(count: int) -> list[dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from fuzzysm import Lattice, evaluate, print_formula, program_to_formula, signature_of
    from fuzzysm.generators import ALL_OPERATORS, gen_formula, gen_program

    rng = random.Random(19)
    out = []
    for _ in range(count):
        d = rng.randint(1, 6)
        lattice = Lattice(d)
        sig = ("p", "q", "r", "s")[:rng.randint(1, 4)]
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
    errors = sum(isinstance(x, str) for a in answers for x in a)
    print(f"{len(todo)} cases, {3 * len(todo)} calls: {unstable} unstable verdicts, "
          f"{errors} errors; {len(differ)} cases differ")
    for k in differ[:3]:
        print(json.dumps(todo[k]), parent[k][:300], change[k][:300], sep="\n  ")
    return 1 if differ or len(parent) != len(change) else 0


if __name__ == "__main__":
    sys.exit(main())
