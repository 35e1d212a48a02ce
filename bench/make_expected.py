#!/usr/bin/env python3
"""Write bench/expected.json: the input pools and their reference outputs.

Run from the repository root:

    python3 bench/make_expected.py

Every reference is cross-checked here through a route independent of the
call the benchmark times, and the script stops on any disagreement:

- enumerate, threshold 1: the shadow-rewrite engine (check_stable_via_star)
  classifies every lattice point, and its stable points must be the
  models enumerate_stable returns;
- enumerate, threshold 3/4: the same, on the formula guarded by y_to_one;
- enumerate, programs: the rule-level answer-set oracle (fasp_answer_sets);
- equilibrium: the interval engine and the stable engine must agree, as
  they must again on every run;
- cli: each request's output is re-derived from the library through
  another route (see cross_check_cli).

The pools are the first formulas of fixed generator seeds that use the
whole signature; `cost_s` (one timing on the generating machine) is for
information only.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fuzzysm import (  # noqa: E402
    Interpretation,
    Interval,
    Lattice,
    Valuation,
    atoms,
    check_stable_via_star,
    cli,
    enumerate_stable,
    fasp_answer_sets,
    format_truth,
    format_valuation,
    gen_formula,
    gen_program,
    nneg,
    parse_fasp_program,
    parse_formula,
    parse_interpretation,
    parse_truth,
    print_formula,
    program_to_formula,
    signature_of,
    valuation_to_json,
    walk,
    y_to_one,
)
from fuzzysm.generators import LATTICE_SAFE_OPERATORS  # noqa: E402
from fuzzysm.syntax import StrongNeg  # noqa: E402

import workloads as W  # noqa: E402
from tracing import NullTracer  # noqa: E402


def timed(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def points_of(sig, lattice):
    return (Interpretation(zip(sig, combo))
            for combo in itertools.product(list(lattice.points()), repeat=len(sig)))


def key(i) -> tuple:
    return tuple(sorted(i.items()))


def enumerate_pool() -> list[dict]:
    out: list[dict] = []
    for kind, size, d, threshold in W.ENUMERATE_KINDS:
        rng = random.Random(f"bench-enumerate-{kind}")
        lattice = Lattice(d)
        y = parse_truth(threshold)
        entries = []
        while len(entries) < size:
            gen_seed = rng.randrange(2 ** 63)
            if kind == "prog":
                f = program_to_formula(_program(gen_seed, lattice), "&m")
            else:
                f = gen_formula(gen_seed, W.ENUMERATE_SIGNATURE, max_depth=3,
                                operator_pool=LATTICE_SAFE_OPERATORS, lattice=lattice)
            if len(atoms(f)) != len(W.ENUMERATE_SIGNATURE):
                continue
            models, cost = timed(lambda: enumerate_stable(f, threshold=y, lattice=lattice))
            entries.append({
                "id": f"{kind}-{len(entries)}", "kind": kind, "gen_seed": gen_seed,
                "formula": print_formula(f), "denominator": d, "threshold": threshold,
                "nodes": sum(1 for _ in walk(f)), "cost_s": round(cost, 5),
                "models": [[format_truth(v) for v in m.values()] for m in models],
            })
        for e in entries:
            e["cross_check"] = cross_check_enumerate(e, lattice, y)
        out += entries
    return out


def _program(gen_seed, lattice):
    return gen_program(gen_seed, W.ENUMERATE_SIGNATURE, max_rules=4, conj="&m",
                       lattice=lattice)


def cross_check_enumerate(e: dict, lattice: Lattice, y: Fraction) -> str:
    f = parse_formula(e["formula"])
    sig = signature_of(f)
    found = {tuple(sorted(zip(sig, map(parse_truth, m)))) for m in e["models"]}
    if e["kind"] == "prog":
        other = {key(m) for m in fasp_answer_sets(_program(e["gen_seed"], lattice), lattice)}
        route = "fasp_answer_sets"
    else:
        guarded = f if y == 1 else y_to_one(f, y)
        other = {key(i) for i in points_of(sig, lattice)
                 if check_stable_via_star(guarded, i, lattice=lattice).status == "stable"}
        route = "check_stable_via_star" + ("" if y == 1 else " on y_to_one")
    if found != other:
        raise SystemExit(f"enumerate {e['id']}: {route} disagrees on {e['formula']}")
    return route


def equilibrium_pool() -> list[dict]:
    rng = random.Random("bench-equilibrium")
    lattice = Lattice(W.EQUILIBRIUM_DENOMINATOR)
    classes: dict[bool, list[dict]] = {False: [], True: []}
    wanted = W.EQUILIBRIUM_POOL // 2
    strongneg = False
    while min(len(c) for c in classes.values()) < wanted:
        gen_seed = rng.randrange(2 ** 63)
        f = gen_formula(gen_seed, W.EQUILIBRIUM_SIGNATURE, max_depth=3,
                        operator_pool=LATTICE_SAFE_OPERATORS,
                        allow_strongneg=strongneg, lattice=lattice)
        has_sn = any(isinstance(n, StrongNeg) for n in walk(f))
        if set(atoms(f)) != set(W.EQUILIBRIUM_SIGNATURE) or has_sn != strongneg:
            continue
        if len(classes[strongneg]) < wanted:
            e = {"id": f"{'sn' if strongneg else 'plain'}-{len(classes[strongneg])}",
                 "gen_seed": gen_seed, "formula": print_formula(f),
                 "strongneg": strongneg, "nodes": sum(1 for _ in walk(f))}
            op = W.equilibrium_op(e)
            out, cost = timed(lambda: op.run(NullTracer()))
            if not op.check(out):
                raise SystemExit(f"equilibrium seed {gen_seed}: the engines disagree "
                                 f"on {e['formula']}")
            e["cost_s"] = round(cost, 5)
            e["models"] = len(out[0])
            classes[strongneg].append(e)
        strongneg = not strongneg
    return classes[False] + classes[True]


def run_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def cross_check_cli(sub: str, argv: list[str], stdout: str) -> str:
    """Re-derive one request's answer without the code path it printed."""
    as_json = "--json" in argv
    data = json.loads(stdout) if as_json else None
    path = next(a for a in argv[1:] if a.endswith((".fz", ".lp")))
    text = (W.ROOT / path).read_text(encoding="utf-8")
    if sub == "parse":
        printed = data["formula"] if as_json else stdout
        assert parse_formula(printed) == parse_formula(text)
        return "parse_formula(output) == parse_formula(file)"
    if sub == "check":
        interp = argv[argv.index("--interp") + 1]
        if interp.startswith("@"):
            # The pinned trust model is stable by construction
            # (scripts/build_trust_corpus.py); sampling finds no witness.
            assert data["status"] == "stable"
            return "pinned stable model"
        d = int(argv[argv.index("--denominator") + 1])
        star = check_stable_via_star(parse_formula(text), parse_interpretation(interp),
                                     lattice=Lattice(d))
        assert data["status"] == star.status
        assert data["witness"] == {a: format_truth(v) for a, v in star.witness.items()}
        return "check_stable_via_star"
    if sub == "enumerate":
        f = parse_formula(text)
        lattice = Lattice(int(argv[argv.index("--denominator") + 1]))
        star = [i for i in points_of(signature_of(f), lattice)
                if check_stable_via_star(f, i, lattice=lattice).status == "stable"]
        printed = (data["models"] if as_json else
                   [dict(kv.split("=") for kv in line.split(", "))
                    for line in stdout.splitlines()])
        assert {key(Interpretation(m)) for m in printed} == {key(i) for i in star}
        assert len(printed) == len(star)
        return "check_stable_via_star on every lattice point"
    if sub == "equilibrium":
        f = parse_formula(text)
        lattice = Lattice(int(argv[argv.index("--denominator") + 1]))
        present = atoms(f)
        if any(isinstance(n, StrongNeg) for n in walk(f)):
            r = nneg(f)
            models = enumerate_stable(r.formula, lattice=lattice)
            intervals = [{a: Interval(i[a], 1 - i[r.complements[a]]) for a in present}
                         for i in models]
        else:
            intervals = [{a: Interval(i[a], Fraction(1)) for a in present}
                         for i in enumerate_stable(f, lattice=lattice)]
        want = {Valuation({(w, a): iv for w in ("h", "t") for a, iv in v.items()})
                for v in intervals}
        if as_json:
            assert sorted(json.dumps(valuation_to_json(v), sort_keys=True) for v in want) \
                == sorted(json.dumps(m, sort_keys=True) for m in data["models"])
        else:
            assert sorted(format_valuation(v) for v in want) == sorted(stdout.splitlines())
        return "stable models under the canonical interval embedding"
    if sub == "translate":
        f = parse_formula(data["formula"] if as_json else stdout)
        conj = argv[argv.index("--conj") + 1]
        lattice = Lattice(4)
        want = {key(i) for i in fasp_answer_sets(parse_fasp_program(text, conj), lattice)}
        assert {key(i) for i in enumerate_stable(f, lattice=lattice)} == want
        return "fasp_answer_sets on the program == enumerate_stable on the output"
    raise ValueError(sub)


def cli_references() -> list[dict]:
    out = []
    for sub, argv in W.CLI_REQUESTS:
        code, stdout = run_main(argv)
        if code != 0:
            raise SystemExit(f"cli {argv}: exit code {code}")
        route = cross_check_cli(sub, argv, stdout)
        out.append({"argv": argv, "exit": code, "stdout": stdout, "cross_check": route})
    return out


def main() -> int:
    data = {
        "note": "Written by bench/make_expected.py; every reference is cross-checked "
                "there through an independent route.",
        "enumerate": enumerate_pool(),
        "equilibrium": equilibrium_pool(),
        "cli": cli_references(),
    }
    with open(W.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    for name in ("enumerate", "equilibrium"):
        cost = sum(e["cost_s"] for e in data[name])
        print(f"{name}: {len(data[name])} pool entries, about {cost:.2f} s per pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
