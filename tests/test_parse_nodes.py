"""The parser and the rule frontend fill their nodes' slots without the
constructors' checks.  Their trees must be the trees the public
constructors build: equal, hashing alike, printing the same repr, still
frozen, and the constructors must keep refusing what they refuse."""
import dataclasses
import random
from pathlib import Path

import pytest

from fuzzysm import (
    Atom,
    Bin,
    Const,
    Neg,
    Rule,
    StrongNeg,
    atoms,
    format_truth,
    parse_fasp_program,
    parse_formula,
    print_formula,
    program_to_formula,
)
from fuzzysm.generators import ALL_OPERATORS, gen_formula, gen_program
from fuzzysm.syntax import fold, walk

PROGRAMS = Path(__file__).resolve().parents[1] / "bench" / "programs"
CONJ = "&m"


def rebuilt(f):
    """f again, every node made by its public constructor."""
    def leaf(x):
        if isinstance(x, Const):
            return Const(x.value)
        return Atom(x.name) if isinstance(x, Atom) else StrongNeg(x.name)

    def node(x, *parts):
        return Neg(x.op, *parts) if isinstance(x, Neg) else Bin(x.op, *parts)

    return fold(f, leaf, node)


def program_formula(rules, join):
    """program_to_formula spelled with the public constructors."""
    out = None
    for r in rules:
        literals = list(r.pos) + [Neg("not_s", b) for b in r.neg]
        body = literals[0] if literals else Const(1)
        for lit in literals[1:]:
            body = Bin(r.conj, body, lit)
        rule = Bin("->r", body, r.head)
        out = rule if out is None else Bin(join, out, rule)
    return out


def reference_atoms(f):
    return tuple(dict.fromkeys(
        x.name for x in walk(f) if isinstance(x, (Atom, StrongNeg))))


def same_tree(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert atoms(got) == reference_atoms(want)


def program_text(rules) -> str:
    def lit(x):
        return x.name if isinstance(x, Atom) else format_truth(x.value, decimal=True)

    lines = []
    for r in rules:
        body = [lit(b) for b in r.pos] + ["not " + lit(b) for b in r.neg]
        lines.append(lit(r.head) + (" <- " + ", ".join(body) if body else "") + ".")
    return "\n".join(lines) + "\n"


def test_corpus_and_bench_programs(corpus):
    for path in sorted(corpus.glob("*.fz")):
        f = parse_formula(path.read_text(encoding="utf-8"))
        same_tree(f, rebuilt(f))
    for path in sorted(PROGRAMS.glob("*.lp")):
        rules = parse_fasp_program(path.read_text(encoding="utf-8"), CONJ)
        assert rules == [Rule(r.head, r.pos, r.neg, r.conj) for r in rules]
        f = program_to_formula(rules, "&l")
        same_tree(f, program_formula(rules, "&l"))
        same_tree(f, rebuilt(f))


def test_generated_formulas():
    for seed in range(5000):
        want = gen_formula(seed, ("p", "q", "r"), max_depth=4,
                           operator_pool=ALL_OPERATORS, allow_strongneg=True)
        got = parse_formula(print_formula(want))
        same_tree(got, want)
        same_tree(got, rebuilt(got))


def test_generated_programs():
    rng = random.Random(7)
    for seed in range(5000):
        conj, join = rng.choice(["&l", "&m", "&p"]), rng.choice(["&l", "&m", "&p"])
        want = gen_program(seed, ("p", "q", "r"), max_rules=5, conj=conj)
        got = parse_fasp_program(program_text(want), conj)
        assert got == want
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert [hash(r) for r in got] == [hash(r) for r in want]
        f = program_to_formula(got, join)
        same_tree(f, program_formula(want, join))


def test_one_atom_per_name_within_a_parse():
    f = parse_formula("p &m q &m p")
    assert f.left.left is f.right
    assert parse_formula("p") is not parse_formula("p")


def test_parsed_nodes_are_frozen():
    f = parse_formula("not_s p &m q")
    rule = parse_fasp_program("p <- q, not r.", CONJ)[0]
    g = program_to_formula([rule], CONJ)
    for node, field in [(f, "op"), (f, "left"), (f.left, "body"), (f.right, "name"),
                        (g, "right"), (g.left.right, "op"), (rule, "conj"),
                        (rule, "pos")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, None)


def test_public_constructors_still_check():
    a = Atom("p")
    with pytest.raises(ValueError, match="unary, not binary"):
        Bin("not_s", a, a)
    with pytest.raises(ValueError, match="not a negation operator"):
        Neg("&m", a)
    with pytest.raises(ValueError, match="unknown operator"):
        Bin("&x", a, a)
    with pytest.raises(ValueError, match="not a conjunction operator"):
        Rule(a, (), (), "|m")
    with pytest.raises(ValueError, match="rule head"):
        Rule(Neg("not_s", a), (), (), CONJ)
    with pytest.raises(ValueError, match="rule literals"):
        Rule(a, (Bin("&m", a, a),), (), CONJ)
