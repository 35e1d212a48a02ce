"""Parse the same texts with two checkouts and compare what comes out.

    python3 scripts/parse_parity.py --parent ../parent --change . [--count 24000]

The texts are generated formulas and programs (with random spacing and
comments), random strings of token pieces, one-character mutations of
the corpus and bench programs, and the benchmark's large inputs.  Each
text is read as a formula (`parse_formula`) and as a program
(`parse_fasp_program`, then `program_to_formula`), and each side prints,
per text and per reading, the `repr` of the result or the type and text
of the error.  The script exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import json
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SIDE = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from fuzzysm import parse_fasp_program, parse_formula, program_to_formula

def show(read, text):
    try:
        return repr(read(text))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

def program(text):
    rules = parse_fasp_program(text, "&m")
    return rules, program_to_formula(rules, "&l") if rules else None

for text in json.load(open(sys.argv[2], encoding="utf-8")):
    print(json.dumps([show(parse_formula, text), show(program, text)]))
"""

_PIECES = ["p", "q1", "_x", "not_s", "not", "nots", "&m", "&l", "&p", "&", "|m",
           "|l", "|", "->r", "->s", "->l", "->", "-", "<-", "<", "~", "(", ")",
           ".", ",", "0.5", "1/2", ".5", "3", "1/0", "1.", "0..5", " ", "\n",
           "\r\n", "\t", "# c\n", "#", "$", "é", "٣"]
_SPACES = ["", " ", "  ", "\n", "\r\n", "\t", " # note\n"]


def spaced(rng: random.Random, text: str) -> str:
    """text with a random space, line end or comment after some characters."""
    return "".join(ch + (rng.choice(_SPACES) if ch == " " else "") for ch in text)


def mutated(rng: random.Random, text: str) -> str:
    k = rng.randrange(len(text) + 1)
    piece = rng.choice(_PIECES)
    return rng.choice([text[:k] + piece + text[k:], text[:k] + text[k + 1:],
                       text[:k] + piece + text[k + 1:]])


def inputs(count: int) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from bench.workloads import CORPUS, chain_program
    from fuzzysm import format_truth, print_formula
    from fuzzysm.generators import ALL_OPERATORS, gen_formula, gen_program

    def rules_text(rules) -> str:
        def lit(x):
            return getattr(x, "name", None) or format_truth(x.value, decimal=True)
        return "".join(
            lit(r.head) + " <- " + ", ".join(
                [lit(b) for b in r.pos] + ["not " + lit(b) for b in r.neg]) + ".\n"
            for r in rules)

    rng = random.Random(14)
    quarter = count // 4
    texts = [spaced(rng, print_formula(gen_formula(
        seed, ("p", "q", "r"), max_depth=5, operator_pool=ALL_OPERATORS,
        allow_strongneg=True))) for seed in range(quarter)]
    texts += [spaced(rng, rules_text(gen_program(seed, ("p", "q", "r"), max_rules=6)))
              for seed in range(quarter)]
    texts += ["".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 14)))
              for _ in range(quarter)]
    files = [p.read_text(encoding="utf-8") for p in
             sorted((ROOT / CORPUS).glob("*.fz")) + sorted((ROOT / "bench/programs").glob("*.lp"))]
    texts += [mutated(rng, rng.choice(files)) for _ in range(count - len(texts))]
    return texts + files + [chain_program(300), chain_program(2000)]


def run_side(root: Path, path: str) -> list[str]:
    out = subprocess.run([sys.executable, "-c", _SIDE, str(root / "src"), path],
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--count", type=int, default=24_000)
    args = parser.parse_args(argv)
    texts = inputs(args.count)
    with tempfile.NamedTemporaryFile("w", suffix=".json", encoding="utf-8") as fh:
        json.dump(texts, fh)
        fh.flush()
        parent, change = run_side(args.parent, fh.name), run_side(args.change, fh.name)
    differ = [k for k, (a, b) in enumerate(zip(parent, change)) if a != b]
    errors = sum(bool(re.match(r"\w+Error: ", s)) for line in change for s in json.loads(line))
    print(f"{len(texts)} texts, {2 * len(texts)} readings, {errors} of them errors; "
          f"{len(differ)} texts differ")
    for k in differ[:5]:
        print(repr(texts[k])[:200], parent[k][:300], change[k][:300], sep="\n  ")
    return 1 if differ or len(parent) != len(change) else 0


if __name__ == "__main__":
    sys.exit(main())
