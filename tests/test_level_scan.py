"""The level-scheduled scans of enumerate_stable and find_witness, checked
against a reference that shares nothing with the compiled program: every
lattice point, and every candidate below it, tested with
semantics.evaluate on f and on fuzzy_reduct(f, I)."""
import random
from fractions import Fraction as F

import pytest

from fuzzysm import (
    Exhaustive,
    Interpretation,
    Lattice,
    enumerate_stable,
    evaluate,
    find_witness,
    fuzzy_reduct,
    parse_formula,
    print_formula,
    signature_of,
)
from fuzzysm.algebra import candidates
from fuzzysm.compiled import compile_formula, level_plan
from fuzzysm.generators import ALL_OPERATORS, gen_formula

SIG3 = ("p", "q", "r")
CAP = 10 ** 7


def reference_witness(f, i, minimized, y, lattice):
    """The first J in algebra.candidates order, I left out, whose value in
    the reduct of f by I reaches y."""
    mset = set(minimized)
    scan = [a for a in signature_of(f, extra=tuple(i)) if a in mset]
    reduct = fuzzy_reduct(f, i)
    pools = [lattice.points_up_to(i[a]) for a in scan]
    for combo in candidates(pools, CAP, skip=tuple(i[a] for a in scan)):
        j = i.updated(dict(zip(scan, combo)))
        if evaluate(reduct, j) >= y:
            return j
    return None


def reference_models(f, minimized, y, lattice):
    """The stable models, in scan order, with the reference witness."""
    sig = signature_of(f)
    points = list(lattice.points())
    grid = (Interpretation(zip(sig, combo))
            for combo in candidates([points] * len(sig), CAP))
    return [i for i in grid if evaluate(f, i) >= y
            and reference_witness(f, i, minimized, y, lattice) is None]


def _case(rng: random.Random, t: int):
    d = 1 + t % 4
    lattice = Lattice(d)
    # Constants from the finer lattice are partly off this one, which
    # sends those formulas to the Fraction domain.
    f = gen_formula(rng.randrange(2 ** 32), SIG3, max_depth=rng.randint(1, 3),
                    operator_pool=ALL_OPERATORS if t % 2 else None,
                    lattice=rng.choice((lattice, Lattice(2 * d))))
    minimized = tuple(a for a in signature_of(f) if rng.random() < 0.7)
    y = rng.choice((F(1), F(1), rng.choice(list(lattice.points())[1:]),
                    F(rng.randint(1, 7), 8)))
    return f, minimized, y, lattice


def test_scans_match_the_reference():
    """500 generated formulas over 3 atoms at D = 1..4, half of them on the
    full operator pool: the stable models, and the first witness below
    every model, are the reference's."""
    rng = random.Random(10)
    for t in range(500):
        f, minimized, y, lattice = _case(rng, t)
        sig = signature_of(f)
        models = [i for i in (Interpretation(zip(sig, combo)) for combo in candidates(
            [list(lattice.points())] * len(sig), CAP)) if evaluate(f, i) >= y]
        stable = []
        for i in models:
            want = reference_witness(f, i, minimized, y, lattice)
            got = find_witness(f, i, minimized, y, lattice, strategy=Exhaustive())
            assert got == want, (print_formula(f), dict(i), minimized, y, lattice)
            if want is None:
                stable.append(i)
        assert enumerate_stable(f, minimized, y, lattice) == stable, (
            print_formula(f), minimized, y, lattice)


def test_reference_is_the_stable_model_definition():
    # The reference itself, on the negation rule: p = 1, q = 0 only.
    f = parse_formula("not_s q ->r p")
    assert reference_models(f, ("p", "q"), F(1), Lattice(4)) == [
        Interpretation({"q": F(0), "p": F(1)})]


# Edge cases of the level plan ---------------------------------------


@pytest.mark.parametrize("text", [
    # Nodes that read no atom run once, before the scan: their slots
    # start at 0, and a scan that skipped them would read 0.
    "(0.375 |m 0) ->r p",
    "(not_s 0 ->r p) &m (q ->r q)",
    "p &m (0.5 ->r 0.25 ->r q)",
    "not_s (not_s 1) |m (q ->l p)",
    # The same shape with value 0, which a skipped node would also read.
    "(0.375 &m 0) ->r p",
    "(not_s 1 ->r p) &m (q ->r r)",
])
@pytest.mark.parametrize("y", [F(1), F(1, 2)])
def test_atom_free_nodes(text, y):
    f = parse_formula(text)
    lattice = Lattice(8)
    assert enumerate_stable(f, threshold=y, lattice=lattice) == \
        reference_models(f, signature_of(f), y, lattice)


def test_atom_free_conjunct_is_tested_once():
    lattice = Lattice(4)
    assert enumerate_stable(parse_formula("p &m 1/2"), lattice=lattice) == []
    assert enumerate_stable(parse_formula("0.5 &l (not_s q ->r p)"),
                            lattice=lattice) == []
    assert enumerate_stable(parse_formula("p &m 1"), lattice=lattice) == \
        enumerate_stable(parse_formula("p"), lattice=lattice) == \
        [Interpretation({"p": F(1)})]


@pytest.mark.parametrize("y, value", [(F(1), F(1)), (F(1, 2), F(1, 2)),
                                      (F(2, 3), F(3, 4))])
def test_bare_atom(y, value):
    assert enumerate_stable(parse_formula("p"), threshold=y, lattice=Lattice(4)) == \
        [Interpretation({"p": value})]


@pytest.mark.parametrize("text", ["(not_s q ->r p) &m (r |l q)", "p |m not_s p"])
def test_empty_minimized_set_keeps_every_model(text):
    f = parse_formula(text)
    lattice = Lattice(3)
    sig = signature_of(f)
    models = [i for i in (Interpretation(zip(sig, combo)) for combo in candidates(
        [list(lattice.points())] * len(sig), CAP)) if evaluate(f, i) >= F(2, 3)]
    assert models
    assert enumerate_stable(f, (), F(2, 3), lattice) == models


def test_off_lattice_names_the_atom_slots_off_the_lattice():
    f = parse_formula("(p ->r q) &m (r |m s)")
    sig = ("p", "q", "r", "s")
    lattice = Lattice(4)
    prog = compile_formula(f, sig, lattice, [F(1, 3), F(1, 2), F(2, 5), F(1)])
    assert prog.off_lattice == {0, 2} and not prog.integer
    prog = compile_formula(f, sig, lattice, [F(1, 4), F(1, 2), F(0), F(1)])
    assert prog.off_lattice == frozenset() and prog.integer
    assert compile_formula(f, sig, lattice).off_lattice == frozenset()
    # The product pair keeps the Fraction domain with every value on the
    # lattice.
    f = parse_formula("(p &p q) |m (r |m s)")
    prog = compile_formula(f, sig, lattice, [F(1, 4), F(1, 2), F(0), F(1)])
    assert prog.off_lattice == frozenset() and not prog.integer


@pytest.mark.parametrize("d", range(1, 13))
def test_domain_and_below_floor_the_degree_times_d(d):
    # Both take floor(x * D) from x's numerator and denominator; the
    # reference is the Fraction product, int() of it.
    lattice = Lattice(d)
    sig = ("p", "q")
    integer = compile_formula(parse_formula("p &m q"), sig, lattice)
    fraction = compile_formula(parse_formula("p &p q"), sig, lattice)
    assert integer.integer and not fraction.integer
    for x in lattice.points():
        k = int(x * d)
        assert integer.domain(x) == k and type(integer.domain(x)) is int
        assert integer.below(k) == tuple(range(k + 1))
        assert fraction.domain(x) is x
        assert fraction.below(x) == fraction.points[:int(x * d) + 1]
    # Off the lattice, as in a Sampled pool: the product pair, or I off
    # the lattice, keeps the Fraction domain.
    off = [F(1, 3), F(2, 7), F(5, 11), F(10 ** 12, 10 ** 12 + 1), F(1, 2 * d + 1)]
    off_i = compile_formula(parse_formula("p &m q"), sig, lattice, [F(1, 13), F(0)])
    assert off_i.off_lattice == {0} and not off_i.integer
    for prog in (fraction, off_i):
        for x in off:
            assert prog.below(x) == prog.points[:int(x * d) + 1]
            assert all(v <= x for v in prog.below(x))


def test_reduct_skips_what_only_a_frozen_negation_reads():
    # Slot 3 (p &m q) reads moving atoms, but only the frozen not_s reads it.
    f = parse_formula("not_s (p &m q) ->r r")
    prog = compile_formula(f, SIG3, Lattice(4))
    checks = prog.reduct_checks((0, 1, 2), 4)
    assert [ins[0] for _, code in checks for ins in code] == [5]


@pytest.mark.parametrize("text, y", [
    ("(not_s q ->r p) &p (p |p not_s r)", F(1, 2)),
    ("(p &p q ->r r) &m (0.5 ->r p) &m (0.5 ->r q)", F(1)),
    ("(0.4 ->r p) &m (not_s p ->r q)", F(1)),
    ("(0.3 ->l p) |p (q ->r p)", F(3, 4)),
])
def test_fraction_domain(text, y):
    f = parse_formula(text)
    lattice = Lattice(3)
    assert not compile_formula(f, signature_of(f), lattice).integer
    assert enumerate_stable(f, threshold=y, lattice=lattice) == \
        reference_models(f, signature_of(f), y, lattice)


@pytest.mark.parametrize("text", [
    "(p &l q) &m (not_s r ->r p)",
    "(q ->l p) &l (not_s p ->s q) &l (r |m p)",
    "(p &p q) &m (not_s q ->r r)",
])
def test_threshold_below_the_top_tests_the_root_alone(text):
    # Below the top a t-norm conjunction can reach the cut with neither
    # argument reaching it, so the root is the only check.
    f = parse_formula(text)
    lattice = Lattice(4)
    prog = compile_formula(f, signature_of(f), lattice)
    cut = prog.level(F(3, 4))
    assert [slot for slot, _ in prog.model_checks(cut)] == [prog.root]
    assert enumerate_stable(f, threshold=F(3, 4), lattice=lattice) == \
        reference_models(f, signature_of(f), F(3, 4), lattice)


def test_reduct_plans_run_nothing_before_the_scan():
    """Level 0 of a plan runs uncapped, once before the scan.  A reduct
    plan leaves it empty, since every instruction and check of
    reduct_checks reads a moving slot: 600 generated formulas over every
    connective, random moving sets, cuts at the top value and below it."""
    rng = random.Random(19)
    for t in range(600):
        lattice = Lattice(1 + t % 4)
        f = gen_formula(rng.randrange(2 ** 32), SIG3, max_depth=rng.randint(1, 4),
                        operator_pool=ALL_OPERATORS,
                        lattice=rng.choice((lattice, Lattice(2 * lattice.denominator))))
        prog = compile_formula(f, SIG3, lattice)
        moving = tuple(k for k in range(len(SIG3)) if rng.random() < 0.6)
        for cut in (prog.points[-1], rng.choice(prog.points)):
            plan = level_plan(prog.reduct_checks(moving, cut), moving)
            assert plan[0] == (), (print_formula(f), moving, cut)
