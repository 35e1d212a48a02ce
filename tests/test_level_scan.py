"""The level-scheduled scans of enumerate_stable and find_witness, checked
against a reference that shares nothing with the compiled program: every
lattice point, and every candidate below it, tested with
semantics.evaluate on f and on fuzzy_reduct(f, I)."""
import itertools
import random
from fractions import Fraction as F

import pytest

import fuzzysm.stable
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
from fuzzysm import compiled
from fuzzysm.algebra import candidates
from fuzzysm.compiled import compile_formula, level_plan, level_scan, witness_in
from fuzzysm.generators import ALL_OPERATORS, gen_formula
from witness_reference import reference_witness

SIG3 = ("p", "q", "r")
CAP = 10 ** 7


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
        assert integer.below(k) == range(k + 1)
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
    # Below the top a t-norm conjunction reaches the cut only when both
    # arguments do, since T(x, y) <= min(x, y), but both can reach it while
    # the conjunction does not.  So each top-level conjunct is a check, and
    # the root, tested after them, is the one that decides.
    f = parse_formula(text)
    lattice = Lattice(4)
    prog = compile_formula(f, signature_of(f), lattice)
    cut = prog.level(F(3, 4))
    conjuncts = [slot for slot, _ in prog.model_checks(prog.points[-1])]
    assert len(conjuncts) > 1
    assert [slot for slot, _ in prog.model_checks(cut)] == conjuncts + [prog.root]
    assert enumerate_stable(f, threshold=F(3, 4), lattice=lattice) == \
        reference_models(f, signature_of(f), F(3, 4), lattice)


def test_conjuncts_that_reach_the_cut_leave_the_root_to_decide():
    # p &l q at p = q = 3/4: both conjuncts reach 3/4, the root is 1/2.
    f = parse_formula("p &l q")
    prog = compile_formula(f, ("p", "q"), Lattice(4))
    cut = prog.level(F(3, 4))
    checks = prog.model_checks(cut)
    assert [slot for slot, _ in checks] == [0, 1, prog.root]
    plan = level_plan(checks, range(2))
    vals = list(prog.slots)
    assert not level_scan(plan, range(2), [[3], [3]], vals, cut)
    assert vals[:2] == [3, 3] and vals[prog.root] == 2
    assert evaluate(f, {"p": F(3, 4), "q": F(3, 4)}) == F(1, 2)
    hits = []
    level_scan(plan, range(2), [[3, 4], [3]], vals, cut,
               accept=lambda: hits.append(tuple(vals[:2])))
    assert hits == [(4, 3)]


# The scan contract ----------------------------------------------------


def test_scan_stops_at_the_first_candidate_accept_takes():
    # p |m q >= 1/2 over D = 2: the passing candidates, in product order,
    # are those with p or q at 1/2 or more.
    f = parse_formula("p |m q")
    prog = compile_formula(f, ("p", "q"), Lattice(2))
    cut = prog.level(F(1, 2))
    plan = level_plan(prog.model_checks(cut), range(2))
    pools = [prog.points] * 2
    passing = [c for c in itertools.product(*pools)
               if evaluate(f, dict(zip(("p", "q"), map(prog.value, c)))) >= F(1, 2)]
    seen = []

    def third() -> bool:
        seen.append(tuple(vals[:2]))
        return len(seen) == 3

    vals = list(prog.slots)
    assert level_scan(plan, range(2), pools, vals, cut, accept=third)
    assert seen == passing[:3] and tuple(vals[:2]) == passing[2]
    seen.clear()
    assert not level_scan(plan, range(2), pools, vals, cut, accept=lambda: seen.append(
        tuple(vals[:2])))
    assert seen == passing
    # With no accept the first passing candidate ends the scan.
    assert level_scan(plan, range(2), pools, vals, cut) and tuple(vals[:2]) == passing[0]


def _witness_plan(prog, moving, cut, at_i):
    """The witness scan's plan, of Program.capped checks, and the work
    list Program.capped returns with it."""
    checks, work = prog.capped(prog.reduct_checks(moving, cut), moving, at_i)
    return level_plan(checks, moving), work


def test_a_hit_equal_to_i_ends_its_product():
    # Every candidate below I = (1, 1) passes the reduct test.  A product
    # that ends with I's values stops there with no witness, and the next
    # product, scanned in the same work list as find_witness scans its
    # draws, finds one.  A hit equal to I ends its product even when more
    # candidates follow it.  witness_in leaves its hit in the work list.
    f = parse_formula("(p ->r p) &m (q ->r q)")
    prog = compile_formula(f, ("p", "q"), Lattice(2))
    top = prog.points[-1]
    moving = (0, 1)
    at_i = prog.evaluate([2, 2])
    plan, work = _witness_plan(prog, moving, top, at_i)
    assert not witness_in(plan, moving, [(2,), (2,)], work, top, at_i)
    assert witness_in(plan, moving, [(0,), (2,)], work, top, at_i)
    assert work[:2] == [0, 2]
    assert not witness_in(plan, moving, [(2, 0), (2, 0)], work, top, at_i)
    assert witness_in(plan, moving, [(0, 2), (2,)], work, top, at_i)
    assert work[:2] == [0, 2]
    assert witness_in(plan, moving, [prog.points] * 2, work, top, at_i)
    assert work[:2] == [0, 0]


def test_the_cap_binds_below_a_minimized_antecedent():
    # At I = (p 1, q 1/2) the antecedent p ->r 0.5 is 1/2; at p = 0 it
    # rises to 1, and the reduct caps it at 1/2, so 1/2 ->r q is 1 at
    # q = 1/2: J = (0, 1/2) is the witness.  Uncapped, 1 ->r 1/2 is 1/2
    # and I would have none.
    f = parse_formula("(p ->r 0.5) ->r q")
    i = Interpretation({"p": F(1), "q": F(1, 2)})
    assert evaluate(fuzzy_reduct(f, i), {"p": F(0), "q": F(1, 2)}) == 1
    prog = compile_formula(f, ("p", "q"), Lattice(2))
    top = prog.points[-1]
    moving = (0, 1)
    at_i = prog.evaluate([2, 1])
    plan, work = _witness_plan(prog, moving, top, at_i)
    assert witness_in(plan, moving, [prog.points, prog.points[:2]], work, top, at_i)
    assert work[:2] == [0, 1]
    # The antecedent's copy is 1 there, and its cap holds I's 1/2.
    antecedent = prog.code[0][0]
    (cap, _, copy, _, _), = [ins for level in plan for code, _ in level for ins in code
                             if ins[3] == antecedent]
    assert work[antecedent] == 1 and work[copy] == 2 and work[cap] == 1
    assert find_witness(f, i, ("p", "q"), lattice=Lattice(2)) == \
        reference_witness(f, i, ("p", "q"), F(1), Lattice(2)) == i.updated({"p": F(0)})
    assert enumerate_stable(f, lattice=Lattice(2)) == \
        reference_models(f, ("p", "q"), F(1), Lattice(2)) == \
        [Interpretation({"p": F(0), "q": F(1)})]


def test_the_bottom_point_is_stable_exactly_when_the_reference_says_so():
    """The only candidate below the all-bottom point is the point itself,
    so its witness scan ends at a hit equal to I: 300 generated formulas
    over 3 atoms at D = 1..4."""
    rng = random.Random(21)
    for t in range(300):
        f, minimized, y, lattice = _case(rng, t)
        sig = signature_of(f)
        bottom = Interpretation({a: F(0) for a in sig})
        want = evaluate(f, bottom) >= y and \
            reference_witness(f, bottom, minimized, y, lattice) is None
        models = enumerate_stable(f, minimized, y, lattice)
        assert (bool(models) and models[0] == bottom) == want, (
            print_formula(f), minimized, y, lattice)


def _kernel_domain(kind: str):
    """A lattice, formula constants and an operator pool that compile to
    connectives read through the _Rows wrapper: numerators just above
    the table bound, or Fractions."""
    if kind == "fraction":
        return Lattice(4), Lattice(12), ALL_OPERATORS
    # A multiple of 5, so that constants on the 1/5 lattice lie on it.
    return Lattice(5 * (compiled._TABLE_BOUND // 5 + 1)), Lattice(5), None


@pytest.mark.parametrize("kind", ["above-table", "fraction"])
def test_scans_match_the_reference_on_untabled_domains(kind):
    """On each domain without tables: over one atom (four formulas), the
    stable models (a grid scan and a witness scan below every model) are
    the reference's; over two atoms (one formula), the grid's models are
    the points whose value reaches y, and the first witness below the
    first few models is the reference's."""
    lattice, constants, pool = _kernel_domain(kind)
    points = list(lattice.points())
    rng = random.Random(22)
    tested = 0
    while tested < 5:
        sig = ("p", "q") if tested == 0 else ("p",)
        f = gen_formula(rng.randrange(2 ** 32), sig, max_depth=3,
                        operator_pool=pool, lattice=constants)
        prog = compile_formula(f, sig, lattice)
        if signature_of(f) != sig or not prog.code or \
                not isinstance(prog.code[-1][1], compiled._Rows):
            continue
        tested += 1
        y = rng.choice((F(1), F(1, 2)))
        if len(sig) == 1:
            assert enumerate_stable(f, sig, y, lattice) == \
                reference_models(f, sig, y, lattice), (print_formula(f), y)
            continue
        grid = [Interpretation(zip(sig, combo))
                for combo in itertools.product(points, repeat=2)]
        models = [i for i in grid if evaluate(f, i) >= y]
        assert enumerate_stable(f, (), y, lattice) == models, (print_formula(f), y)
        for i in models[:3]:
            got = find_witness(f, i, sig, y, lattice, strategy=Exhaustive())
            assert got == reference_witness(f, i, sig, y, lattice), (
                print_formula(f), dict(i), y)


def _bottom_case(rng: random.Random, t: int):
    """A formula, minimized atoms, threshold and lattice on one of the
    three domains: tables (D = 1..4), numerators just above the table
    bound (D = 65, one atom, so that the reference's grid stays small), or
    Fractions."""
    kind = ("table", "above-table", "fraction")[t % 3]
    if kind == "above-table":
        sig, lattice, constants, pool = ("p",), Lattice(65), Lattice(5), None
    else:
        lattice = Lattice(1 + t % 4)
        sig, pool = SIG3, ALL_OPERATORS if kind == "fraction" else None
        constants = Lattice(12) if kind == "fraction" else lattice
    f = gen_formula(rng.randrange(2 ** 32), sig, max_depth=rng.randint(1, 3),
                    operator_pool=pool, lattice=constants)
    minimized = tuple(a for a in signature_of(f) if rng.random() < 0.7)
    y = rng.choice((F(1), F(1), rng.choice(list(lattice.points())[1:])))
    return f, minimized, y, lattice


@pytest.mark.parametrize("fixed", [False, True])
def test_the_bottom_check_is_witness_in_at_the_bottom(fixed, monkeypatch):
    """enumerate_stable's grid scan runs Program.capped in bottom mode and
    skips the witness scan (witness_in) at a model I exactly when the
    reference says the bottom candidate (every minimized atom at 0) is a
    witness: it differs from I and its value in the reduct by I reaches
    y.  300 generated formulas over the three domains (and, fixed, frozen
    negations that feed implications, two atoms at D = 66 among them),
    thresholds at and below 1, some atoms not minimized."""
    rng = random.Random(23)
    cases = [_bottom_case(rng, t) for t in range(300)] if not fixed else [
        (parse_formula(text), minimized, y, Lattice(d))
        for text in ("(not_s q ->r p) &m (not_s p ->r q)", "not_s (p &m q) ->r q",
                     "(not_s q ->s p) &l (p |m not_s q)", "not_s p ->l (q &p p)")
        for minimized in (("p", "q"), ("p",))
        for y, d in ((F(1), 3), (F(2, 3), 3), (F(1, 2), 66))]
    scanned = []

    def recording(plan, moving, pools, work, cut, at_i) -> bool:
        # Which models reach the witness scan is what is tested, so the
        # scan itself is left out and reports a witness.
        scanned.append(tuple(at_i[:len(sig)]))
        return True

    monkeypatch.setattr(fuzzysm.stable, "witness_in", recording)
    seen = {"integer": 0, "table": 0, "fraction": 0, "witness": 0, "no witness": 0,
            "unminimized": 0, "below 1": 0, "frozen into an implication": 0}
    for f, minimized, y, lattice in cases:
        sig = signature_of(f)
        prog = compile_formula(f, sig, lattice)
        moving = {k for k, a in enumerate(sig) if a in minimized}
        skipped = []
        unskipped = []
        for combo in itertools.product(list(lattice.points()), repeat=len(sig)):
            i = Interpretation(zip(sig, combo))
            if evaluate(f, i) < y:
                continue
            j = i.updated({a: F(0) for a in minimized})
            bottom = j != i and evaluate(fuzzy_reduct(f, i), j) >= y
            (skipped if bottom else unskipped).append(combo)
        scanned.clear()
        enumerate_stable(f, minimized, y, lattice)
        assert [tuple(map(prog.value, point)) for point in scanned] == unskipped, (
            print_formula(f), minimized, y, lattice)
        kind = ("fraction" if not prog.integer else
                "table" if lattice.denominator <= compiled._TABLE_BOUND else "integer")
        seen[kind] += 1
        seen["witness"] += len(skipped)
        seen["no witness"] += len(unskipped)
        seen["unminimized"] += len(moving) < len(sig)
        seen["below 1"] += y < 1
        frozen = {k for k, _, a, b, family in prog.code
                  if family is compiled.OpFamily.NEGATION and a in moving}
        seen["frozen into an implication"] += any(
            family is compiled.OpFamily.IMPLICATION and {a, b} & frozen
            for _, _, a, b, family in prog.code)
    assert min(seen.values()) >= 4, seen
