"""Acceptance gate: eleven end-to-end checks, one line of output each.

Every check re-derives its expectation through an independent route
(hand-pinned enumeration, two-valued oracle, program oracle, interval
semantics) and each prints PASS/FAIL with its wall-clock time.  Times are
informational; only correctness is asserted.
"""
import random
import time
from fractions import Fraction as F

import pytest

from fuzzysm import (
    BoolInterpretation,
    Exhaustive,
    Interpretation,
    Interval,
    Lattice,
    Sampled,
    Valuation,
    atoms,
    boolean_embed,
    boolean_stable_check,
    check_stable,
    crisp_interp,
    enumerate_equilibrium,
    enumerate_stable,
    evaluate,
    fasp_answer_sets,
    find_witness,
    fuzzy_reduct,
    gen_bool_interpretation,
    gen_formula,
    gen_interpretation,
    gen_program,
    nneg,
    parse_formula,
    parse_interpretation,
    print_formula,
    program_to_formula,
    run_all,
    signature_of,
)
from fuzzysm import semantics
from fuzzysm.stable import _draws
from fuzzysm.algebra import CONJUNCTIONS
from fuzzysm.compiled import compile_formula, level_plan, witness_in
from fuzzysm.generators import CLASSICAL_OPERATORS, LATTICE_SAFE_OPERATORS

D3 = Lattice(3)
D4 = Lattice(4)
D10 = Lattice(10)


@pytest.fixture(scope="module")
def report(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def write(line: str) -> None:
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    write("")
    return write


class _Timed:
    def __init__(self, write, number, label):
        self.write, self.number, self.label = write, number, label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        took = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        self.write(f"criterion {self.number:2d}: {status}  {took:7.2f}s  {self.label}")
        return False


def models_as_pairs(models, *names):
    return [tuple(m[n] for n in names) for m in models]


def test_criterion_01_negation_rule_and_loop(report):
    with _Timed(report, 1, "negation rule and loop enumerate to the pinned sets"):
        single = enumerate_stable(parse_formula("not_s q ->r p"), lattice=D10)
        assert single == [Interpretation({"q": F(0), "p": F(1)})]
        loop = enumerate_stable(
            parse_formula("(not_s q ->r p) &m (not_s p ->r q)"), lattice=D10)
        assert models_as_pairs(loop, "p", "q") == [
            (F(k, 10), 1 - F(k, 10)) for k in range(10, -1, -1)]


def test_criterion_02_self_support_and_tautologies(report):
    with _Timed(report, 2, "self-implication minimizes; double negation and "
                           "excluded middle keep every point"):
        sole = enumerate_stable(parse_formula("p ->r p"), lattice=D10)
        assert sole == [Interpretation({"p": F(0)})]
        for text in ("not_s not_s p ->r p", "not_s p |l p"):
            models = enumerate_stable(parse_formula(text), lattice=D10)
            assert [m["p"] for m in models] == [F(k, 10) for k in range(11)]


def test_criterion_03_reduct_wrapper_choice(report):
    with _Timed(report, 3, "minimum cap keeps the nested guard satisfied; a "
                           "Lukasiewicz cap would not"):
        f = parse_formula("0.6 ->r (1 ->r p)")
        i = parse_interpretation("p=0.6")
        assert evaluate(f, i) == 1
        assert evaluate(fuzzy_reduct(f, i, simplified=False), i) == 1
        assert evaluate(fuzzy_reduct(f, i, simplified=True), i) == 1
        assert evaluate(semantics._reduct(f, i, True, "&l"), i) == F(1, 5)


def test_criterion_04_inertia_default(report):
    with _Timed(report, 4, "inertia: matching value stable, deviation "
                           "disputed, explicit override stable"):
        core = parse_formula(
            "not_s (p1 &l np1)"
            " &m not_s not_s (p1 |l np1)"
            " &m ((p0 &m not_s not_s p1) ->r p1)"
            " &m ((np0 &m not_s not_s np1) ->r np1)")
        minimized = ("p1", "np1")
        i1 = parse_interpretation("p0=0.3, np0=0.7, p1=0.3, np1=0.7")
        assert check_stable(core, i1, minimized, lattice=D10).status == "stable"
        i2 = parse_interpretation("p0=0.3, np0=0.7, p1=0.5, np1=0.5")
        v = check_stable(core, i2, minimized, lattice=D10)
        assert v.status == "unstable"
        assert v.witness is not None and v.witness["p1"] == F(3, 10)
        override = parse_formula(
            f"({print_formula(core)}) &m (0.5 ->r p1) &m (0.5 ->r np1)")
        assert check_stable(override, i2, minimized,
                            lattice=D10).status == "stable"


def test_criterion_05_threshold_guard(report):
    with _Timed(report, 5, "relaxed threshold and its guarded rewrite accept "
                           "the same interpretation"):
        i = parse_interpretation("p=0, q=0.6")
        bare = check_stable(parse_formula("not_s p ->r q"), i,
                            threshold=F(3, 5), lattice=D10,
                            strategy=Exhaustive())
        assert bare.status == "stable"
        guarded = check_stable(parse_formula("0.6 ->r (not_s p ->r q)"), i,
                               lattice=D10, strategy=Exhaustive())
        assert guarded.status == "stable"


def test_criterion_06_boolean_correspondence(report):
    with _Timed(report, 6, "200 random two-valued formulas: crisp oracle "
                           "matches the min/max embedding; the Lukasiewicz "
                           "join breaks it at 0.5"):
        rng = random.Random("acceptance-boolean")
        sig = ("p", "q", "r")
        for _ in range(200):
            f = gen_formula(rng.randrange(2 ** 63), sig, max_depth=3,
                            operator_pool=CLASSICAL_OPERATORS,
                            lattice=Lattice(1))
            x = gen_bool_interpretation(rng.randrange(2 ** 63), sig)
            minimized = tuple(a for a in sig if rng.random() < 0.7)
            crisp = boolean_stable_check(f, x, minimized)
            fuzzy = check_stable(boolean_embed(f), crisp_interp(x), minimized,
                                 lattice=D4)
            assert crisp.status == fuzzy.status, print_formula(f)
        # the embedding needs the maximum join: with the bounded sum the
        # crisp-stable self-join becomes disputable halfway up
        assert boolean_stable_check(
            parse_formula("p |m p"),
            BoolInterpretation(("p",), frozenset({"p"}))).status == "stable"
        v = check_stable(parse_formula("p |l p"),
                         Interpretation({"p": F(1)}), lattice=D4)
        assert v.status == "unstable"
        assert v.witness == Interpretation({"p": F(1, 2)})


def test_criterion_07_program_oracle(report):
    with _Timed(report, 7, "200 random normal programs: the rule-level "
                           "answer-set oracle and the formula route agree"):
        rng = random.Random("acceptance-programs")
        sig = ("p", "q", "r")
        for _ in range(200):
            body = rng.choice(CONJUNCTIONS)
            join = rng.choice(CONJUNCTIONS)
            rules = gen_program(rng.randrange(2 ** 63), sig, max_rules=4,
                                conj=body, lattice=D4)
            direct = fasp_answer_sets(rules, D4)
            framed = enumerate_stable(program_to_formula(rules, join),
                                      lattice=D4)
            assert (sorted(tuple(sorted(m.items())) for m in direct)
                    == sorted(tuple(sorted(m.items())) for m in framed))


def test_criterion_08_complement_rewrite(report):
    with _Timed(report, 8, "complementary pair: one stable model after the "
                           "complement rewrite, one equilibrium interval"):
        f = parse_formula("(0.2 ->r p) &m (0.3 ->r ~p)")
        r = nneg(f)
        models = enumerate_stable(r.formula, minimized=("p", "np"),
                                  lattice=D10)
        assert models == [Interpretation({"p": F(1, 5), "np": F(3, 10)})]
        eq = enumerate_equilibrium(f, D10)
        point = Interval(F(1, 5), F(7, 10))
        assert eq == [Valuation({("h", "p"): point, ("t", "p"): point})]


def test_criterion_09_equilibrium_correspondence(report):
    with _Timed(report, 9, "100 random formulas: stable models and "
                           "equilibrium models are the same set under the "
                           "canonical interval embedding"):
        rng = random.Random("acceptance-equilibrium")
        sig = ("p", "q")
        checked = 0
        while checked < 100:
            f = gen_formula(rng.randrange(2 ** 63), sig, max_depth=3,
                            operator_pool=LATTICE_SAFE_OPERATORS,
                            allow_strongneg=(checked % 2 == 1), lattice=D3)
            present = atoms(f)
            if not present:
                continue
            eq = set(enumerate_equilibrium(f, D3))
            if "~" not in print_formula(f):
                mapped = {
                    Valuation({(w, a): Interval(i[a], F(1))
                               for w in ("h", "t") for a in present})
                    for i in enumerate_stable(f, lattice=D3)}
            else:
                r = nneg(f)
                mapped = set()
                for i in enumerate_stable(r.formula, lattice=D3):
                    data = {}
                    for a in present:
                        iv = Interval(i[a], 1 - i[r.complements[a]])
                        data[("h", a)] = iv
                        data[("t", a)] = iv
                    mapped.add(Valuation(data))
            assert mapped == eq, print_formula(f)
            checked += 1


def test_criterion_10_property_suites(report):
    with _Timed(report, 10, "all randomized invariant suites pass at 500 "
                            "trials"):
        reports = run_all(trials=500, seed=0, lattice=D4)
        failed = [(r.suite, r.counterexample) for r in reports if not r.passed]
        assert failed == []
        assert len(reports) == 30


def test_criterion_11_trust_corpus(report, corpus):
    with _Timed(report, 11, "trust networks reproduce the pinned degrees and "
                            "survive a 100000-sample witness hunt"):
        expected = {"trust_product": F(14, 25), "trust_luk": F(1, 2)}
        for stem, want in expected.items():
            f = parse_formula((corpus / f"{stem}.fz").read_text())
            i = parse_interpretation(
                (corpus / f"{stem}_model.json").read_text())
            assert i["trust_alice_carol_0"] == want
            assert evaluate(f, i) == 1
            assert evaluate(fuzzy_reduct(f, i), i) == 1
            found = find_witness(f, i, signature_of(f),
                                 strategy=Sampled(samples=100_000, seed=0))
            assert found is None
            # find_witness answers by the least-fixpoint proof before any
            # draw, so the hunt itself runs here: the same draws through
            # the witness kernel.
            sig = signature_of(f)
            prog = compile_formula(f, sig, D10, i.values())
            at_i = prog.evaluate([prog.domain(i[a]) for a in sig])
            moving = tuple(range(len(sig)))
            top = prog.points[-1]
            pools = [[(v,) for v in prog.below(at_i[k])]
                     + ([] if i[a] in D10 else [(at_i[k],)])
                     for k, a in enumerate(sig)]
            checks, work = prog.capped(prog.reduct_checks(moving, top), moving, at_i)
            plan = level_plan(checks, moving)
            assert not any(witness_in(plan, moving, row, work, top, at_i)
                           for row in _draws(pools, 100_000, 0))
