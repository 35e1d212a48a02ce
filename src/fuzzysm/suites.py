"""Named invariant suites over the random generators.

Each suite checks one law of the semantics and reports the first
counterexample it hits.  A suite is a control, run once on the lattice,
and a trial, run on freshly generated material; it has one or both.
run_suite owns the loop: it runs the control, then seeds one RNG with the
suite's registry name and the seed and draws trials from it until one
returns a counterexample or the trial count is spent.  The registry
drives both the CLI ('props --suite NAME') and the acceptance tests; the
manifest in docs/properties.md lists every name and is itself checked
against the registry by the test suite.

Suites with a control and no trial (exhaustive sweeps of the lattice and
a pinned negative control) ignore the trial count.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import (
    CONJUNCTIONS,
    DISJUNCTIONS,
    IMPLICATIONS,
    ONE,
    OPERATORS,
    ZERO,
    Lattice,
    format_truth,
    lattice_closed,
    op_apply,
    op_check_axioms,
    residual_condition,
)
from .compiled import compile_formula, least_model, level_plan, level_scan, witness_in
from .equilibrium import (
    Interval,
    Valuation,
    is_equilibrium,
    n5_evaluate,
    paired_valuation,
    valuation_of,
)
from .generators import (
    ALL_OPERATORS,
    CLASSICAL_OPERATORS,
    LATTICE_SAFE_OPERATORS,
    gen_bool_interpretation,
    gen_formula,
    gen_interpretation,
    gen_lower_interpretation,
    gen_program,
)
from .semantics import (
    Interpretation,
    evaluate,
    format_interpretation,
    fuzzy_reduct,
    parse_interpretation,
    satisfies,
    _reduct,
)
from .stable import (
    boolean_stable_check,
    check_stable,
    check_stable_via_star,
    fasp_answer_set_check,
    shadow_names,
    star_transform,
    y_to_one,
)
from .syntax import (
    Atom,
    Bin,
    Formula,
    Neg,
    StrongNeg,
    atoms,
    fold,
    leaves,
    parse_formula,
    print_formula,
    program_to_formula,
    rule_to_formula,
    signature_of,
    walk,
)
from .transforms import OpSelection, boolean_embed, choice, crisp_interp, nneg

SIG2 = ("p", "q")
SIG3 = ("p", "q", "r")

Control = Callable[[Lattice], str | None]
Trial = Callable[[random.Random, Lattice], str | None]


@dataclass(frozen=True)
class PropertyReport:
    suite: str
    passed: bool
    trials: int
    counterexample: str | None = None
    note: str = ""


def _master(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _cx(**parts: object) -> str:
    return "; ".join(f"{k} = {v}" for k, v in parts.items())


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 63)


# algebra ---------------------------------------------------------------


def _operator_axioms(lattice: Lattice) -> str | None:
    for token in OPERATORS:
        bad = op_check_axioms(token, lattice)
        if bad:
            return bad[0]


def _residual_flags(lattice: Lattice) -> str | None:
    for token in IMPLICATIONS:
        declared = OPERATORS[token].residual
        actual = residual_condition(token, lattice)
        if declared != actual:
            return _cx(operator=token, declared=declared, lattice_check=actual)


def _conjunction_bounds(rng: random.Random, lattice: Lattice) -> str | None:
    points = list(lattice.points())
    token = rng.choice(CONJUNCTIONS)
    x, y = rng.choice(points), rng.choice(points)
    v = op_apply(token, x, y)
    if v > min(x, y):
        return _cx(op=token, x=x, y=y, value=v, bound=min(x, y))
    if (v == ONE) != (x == ONE and y == ONE):
        return _cx(op=token, x=x, y=y, value=v, law="1 only at (1,1)")
    if (x == ZERO or y == ZERO) and v != ZERO:
        return _cx(op=token, x=x, y=y, value=v, law="0 absorbs")


def _disjunction_bounds(rng: random.Random, lattice: Lattice) -> str | None:
    points = list(lattice.points())
    token = rng.choice(DISJUNCTIONS)
    x, y = rng.choice(points), rng.choice(points)
    v = op_apply(token, x, y)
    if v < max(x, y):
        return _cx(op=token, x=x, y=y, value=v, bound=max(x, y))
    if (v == ZERO) != (x == ZERO and y == ZERO):
        return _cx(op=token, x=x, y=y, value=v, law="0 only at (0,0)")
    if (x == ONE or y == ONE) and v != ONE:
        return _cx(op=token, x=x, y=y, value=v, law="1 absorbs")


def _lattice_closure(lattice: Lattice) -> str | None:
    for token, op in OPERATORS.items():
        expected = op.lattice_closed or lattice.denominator == 1
        actual = lattice_closed(token, lattice)
        if actual != expected:
            return _cx(op=token, declared=expected, lattice_check=actual)


# syntax ----------------------------------------------------------------


def _parse_print_roundtrip(rng: random.Random, lattice: Lattice) -> str | None:
    f = gen_formula(_seed(rng), SIG3, max_depth=4, operator_pool=ALL_OPERATORS,
                    allow_strongneg=True, lattice=lattice)
    text = print_formula(f)
    back = parse_formula(text)
    if back != f:
        return _cx(formula=f, printed=text, reparsed=back)


def _program_translation_shape(rng: random.Random, lattice: Lattice) -> str | None:
    conj = rng.choice(CONJUNCTIONS)
    rules = gen_program(_seed(rng), SIG3, max_rules=4, conj=conj, lattice=lattice)
    for rule in rules:
        f = rule_to_formula(rule)
        if not (isinstance(f, Bin) and f.op == "->r"):
            return _cx(rule=rule, formula=print_formula(f),
                       problem="rule formula is not a '->r' implication")
        if sum(isinstance(n, Neg) for n in walk(f)) != len(rule.neg):
            return _cx(rule=rule, formula=print_formula(f),
                       problem="wrong number of negations")
    forward = program_to_formula(rules, conj)
    backward = program_to_formula(list(reversed(rules)), conj)
    sig = signature_of(forward, backward)
    for _ in range(3):
        i = gen_interpretation(_seed(rng), sig, lattice)
        if evaluate(forward, i) != evaluate(backward, i):
            return _cx(program=[print_formula(rule_to_formula(r)) for r in rules],
                       i=format_interpretation(i),
                       problem="rule order changed the program value")


# semantics ---------------------------------------------------------------


def _gen_fip(rng: random.Random, lattice: Lattice, sig=SIG2, depth=3):
    f = gen_formula(_seed(rng), sig, max_depth=depth,
                    operator_pool=ALL_OPERATORS, lattice=lattice)
    i = gen_interpretation(_seed(rng), sig, lattice)
    minimized = tuple(a for a in sig if rng.random() < 0.6)
    return f, i, minimized


def _reduct_value_equality(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, _ = _gen_fip(rng, lattice)
    for simplified in (True, False):
        r = fuzzy_reduct(f, i, simplified=simplified)
        if evaluate(r, i) != evaluate(f, i):
            return _cx(formula=print_formula(f), i=format_interpretation(i),
                       reduct=print_formula(r), simplified=simplified)


def _reduct_monotonicity(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, minimized = _gen_fip(rng, lattice)
    j = gen_lower_interpretation(_seed(rng), i, minimized, lattice)
    r = fuzzy_reduct(f, i)
    if evaluate(r, j) > evaluate(f, i):
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   j=format_interpretation(j), reduct_value=evaluate(r, j),
                   original_value=evaluate(f, i))


def _reduct_simplified_agreement(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, minimized = _gen_fip(rng, lattice)
    j = gen_lower_interpretation(_seed(rng), i, minimized, lattice)
    lean = fuzzy_reduct(f, i, simplified=True)
    full = fuzzy_reduct(f, i, simplified=False)
    if evaluate(lean, j) != evaluate(full, j):
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   j=format_interpretation(j),
                   lean=evaluate(lean, j), full=evaluate(full, j))


def _reduct_wrapper_counterexample(lattice: Lattice) -> str | None:
    # Negative control: capping with the Lukasiewicz t-norm instead of the
    # minimum makes the reduct lose value on this pinned formula.
    f = parse_formula("0.6 ->r (1 ->r p)")
    i = parse_interpretation("p=0.6")
    good = evaluate(fuzzy_reduct(f, i), i)
    if good != ONE:
        return _cx(problem="minimum wrapper no longer keeps the value", value=good)
    variant = evaluate(_reduct(f, i, True, "&l"), i)
    if variant != Fraction(1, 5):
        return _cx(problem="the '&l'-wrapper regression moved",
                   expected="1/5", value=variant)


def _compiled_evaluation_agreement(rng: random.Random, lattice: Lattice) -> str | None:
    # Constants and values of I from the finer lattice are partly off this
    # one, which sends those formulas and interpretations to the Fraction
    # domain.
    finer = Lattice(3 * lattice.denominator)
    f = gen_formula(_seed(rng), SIG2, max_depth=3, operator_pool=ALL_OPERATORS,
                    lattice=rng.choice((lattice, finer)))
    i = gen_interpretation(_seed(rng), SIG2, rng.choice((lattice, finer)))
    minimized = tuple(a for a in SIG2 if rng.random() < 0.6)
    j = gen_lower_interpretation(_seed(rng), i, minimized, lattice)
    prog = compile_formula(f, SIG2, lattice, [i[a] for a in SIG2])
    at_i = prog.evaluate([prog.domain(i[a]) for a in SIG2])
    value = prog.value(at_i[prog.root])
    if value != evaluate(f, i):
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   compiled=value, reference=evaluate(f, i), integer=prog.integer)
    # The witness kernel's reduct test on J, at a threshold that I reaches
    # (the kernel's precondition): half the time I's own value, which is
    # the top whenever I is a model.
    y = value if rng.random() < 0.5 else rng.choice(lattice.points_up_to(value))
    moving = tuple(k for k, a in enumerate(SIG2) if a in minimized)
    candidate = tuple(prog.domain(j[a]) for a in minimized)
    if candidate == tuple(at_i[k] for k in moving):
        return None  # the kernel never tests J = I
    cut = prog.level(y)
    checks, work = prog.capped(prog.reduct_checks(moving, cut), moving, at_i)
    passed = witness_in(level_plan(checks, moving), moving, [(v,) for v in candidate],
                        work, cut, at_i)
    reference = evaluate(fuzzy_reduct(f, i), j) >= y
    if passed != reference:
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   j=format_interpretation(j), minimized=minimized,
                   threshold=format_truth(y), kernel=passed,
                   reference=reference, integer=prog.integer)


def _least_model_problem(prog, at_i: list, moving: tuple, horn: bool) -> dict | None:
    """What is wrong with least_model at the model I (at_i) at the top
    value, checked against the exhaustive witness scan; None when
    nothing is, or when the reduct is not Horn-shaped and need not be."""
    top = prog.points[-1]
    pools = [prog.below(at_i[k]) for k in moving]
    checks = prog.reduct_checks(moving, top)
    least = least_model(prog, checks, moving, pools, at_i)
    if least is None:
        return dict(problem="a program's reduct is not Horn-shaped") if horn else None
    capped, work = prog.capped(checks, moving, at_i)
    plan = level_plan(capped, moving)
    base = tuple(at_i[k] for k in moving)
    scanned = (tuple(work[k] for k in moving)
               if witness_in(plan, moving, pools, work, top, at_i) else None)
    if (least == base) != (scanned is None):
        return dict(least=least, scanned=scanned)
    if least == base:
        return None
    if not witness_in(plan, moving, [(v,) for v in least], work, top, at_i):
        return dict(least=least, problem="the least model fails the reduct")

    def above_least() -> bool:
        return any(x > work[k] for x, k in zip(least, moving))

    if level_scan(plan, moving, pools, work, top, above_least):
        return dict(least=least, hit=tuple(work[k] for k in moving),
                    problem="the least model is not below a hit")
    return None


def _fixpoint_agreement(rng: random.Random, lattice: Lattice) -> str | None:
    # gen_program output is always Horn-shaped; a formula only sometimes.
    # '->s' stays in the formulas' pool: a proof that took it for a
    # residual implication would show.
    if rng.random() < 0.5:
        rules = gen_program(_seed(rng), SIG3, max_rules=4,
                            conj=rng.choice(CONJUNCTIONS), lattice=lattice)
        f = program_to_formula(rules, rng.choice(CONJUNCTIONS))
    else:
        rules = None
        f = gen_formula(_seed(rng), SIG3, max_depth=4,
                        operator_pool=ALL_OPERATORS, lattice=lattice)
    sig = signature_of(f)
    prog = compile_formula(f, sig, lattice)
    # The proof is only asked at a model, so each trial draws several I.
    for _ in range(6):
        i = gen_interpretation(_seed(rng), sig, lattice)
        at_i = prog.evaluate([prog.domain(i[a]) for a in sig])
        moving = tuple(k for k, a in enumerate(sig) if rng.random() < 0.7)
        if at_i[prog.root] != prog.points[-1]:
            continue
        problem = _least_model_problem(prog, at_i, moving, rules is not None)
        if problem is not None:
            return _cx(formula=print_formula(f), i=format_interpretation(i),
                       minimized=[sig[k] for k in moving], **problem)


# stable ------------------------------------------------------------------


def _empty_minimization(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, _ = _gen_fip(rng, lattice)
    y = rng.choice([v for v in lattice.points() if v > ZERO])
    verdict = check_stable(f, i, minimized=(), threshold=y, lattice=lattice)
    expected = "stable" if satisfies(f, i, y) else "not_a_model"
    if verdict.status != expected:
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   threshold=y, status=verdict.status, expected=expected)


def _threshold_guard_agreement(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, minimized = _gen_fip(rng, lattice)
    y = rng.choice([v for v in lattice.points() if v > ZERO])
    direct = check_stable(f, i, minimized, y, lattice)
    guarded = check_stable(y_to_one(f, y), i, minimized, ONE, lattice)
    if direct.status != guarded.status or direct.witness != guarded.witness:
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   minimized=minimized, threshold=y,
                   direct=direct.status, guarded=guarded.status)


def _shadow_rewrite_agreement(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, minimized = _gen_fip(rng, lattice)
    direct = check_stable(f, i, minimized, ONE, lattice)
    starred = check_stable_via_star(f, i, minimized, lattice)
    if direct.status != starred.status or direct.witness != starred.witness:
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   minimized=minimized, direct=direct.status,
                   starred=starred.status)


def _shadow_merge_value(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, minimized = _gen_fip(rng, lattice)
    j = gen_lower_interpretation(_seed(rng), i, minimized, lattice)
    fresh = shadow_names(signature_of(f, extra=tuple(i)), minimized)
    star = star_transform(f, minimized, fresh)
    merged = dict(i)
    for a in minimized:
        merged[fresh[a]] = j[a]
    if evaluate(star, merged) != evaluate(fuzzy_reduct(f, i), j):
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   j=format_interpretation(j), minimized=minimized,
                   star=evaluate(star, merged),
                   reduct=evaluate(fuzzy_reduct(f, i), j))


def _boolean_correspondence(rng: random.Random, lattice: Lattice) -> str | None:
    f = gen_formula(_seed(rng), SIG3, max_depth=3,
                    operator_pool=CLASSICAL_OPERATORS, lattice=Lattice(1))
    x = gen_bool_interpretation(_seed(rng), SIG3)
    minimized = tuple(a for a in SIG3 if rng.random() < 0.7)
    crisp = boolean_stable_check(f, x, minimized)
    fuzzy = check_stable(boolean_embed(f), crisp_interp(x), minimized, ONE, lattice)
    if crisp.status != fuzzy.status:
        return _cx(formula=print_formula(f), true_atoms=sorted(x.true_atoms),
                   minimized=minimized, crisp=crisp.status, fuzzy=fuzzy.status)


def _crisp_stability_transfer(rng: random.Random, lattice: Lattice) -> str | None:
    f = gen_formula(_seed(rng), SIG3, max_depth=3,
                    operator_pool=CLASSICAL_OPERATORS, lattice=Lattice(1))
    selection = OpSelection(
        neg="not_s",
        conj=rng.choice(CONJUNCTIONS),
        disj=rng.choice(DISJUNCTIONS),
        impl=rng.choice(IMPLICATIONS),
    )
    x = gen_bool_interpretation(_seed(rng), SIG3)
    fuzzy = check_stable(boolean_embed(f, selection), crisp_interp(x),
                         None, ONE, lattice)
    if fuzzy.status == "stable":
        crisp = boolean_stable_check(f, x)
        if crisp.status != "stable":
            return _cx(formula=print_formula(f), selection=selection,
                       true_atoms=sorted(x.true_atoms), crisp=crisp.status)


def _program_oracle_agreement(rng: random.Random, lattice: Lattice) -> str | None:
    body_conj = rng.choice(CONJUNCTIONS)
    join_conj = rng.choice(CONJUNCTIONS)
    rules = gen_program(_seed(rng), SIG3, max_rules=4, conj=body_conj,
                        lattice=lattice)
    formula = program_to_formula(rules, join_conj)
    i = gen_interpretation(_seed(rng), signature_of(formula), lattice)
    direct = fasp_answer_set_check(rules, i, lattice)
    framed = check_stable(formula, i, None, ONE, lattice).status == "stable"
    if direct != framed:
        return _cx(program=[print_formula(rule_to_formula(r)) for r in rules],
                   i=format_interpretation(i), direct=direct, framed=framed)


def _constraint_conjunction(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, _ = _gen_fip(rng, lattice)
    g = gen_formula(_seed(rng), SIG2, max_depth=2, operator_pool=ALL_OPERATORS,
                    lattice=lattice)
    conj = rng.choice(CONJUNCTIONS)
    constrained = Bin(conj, f, Neg("not_s", g))
    combined = check_stable(constrained, i, SIG2, ONE, lattice)
    plain = check_stable(f, i, SIG2, ONE, lattice)
    lhs = combined.status == "stable"
    rhs = plain.status == "stable" and satisfies(Neg("not_s", g), i)
    if lhs != rhs:
        return _cx(formula=print_formula(f), constraint=print_formula(g),
                   conj=conj, i=format_interpretation(i),
                   combined=combined.status, plain=plain.status,
                   constraint_holds=satisfies(Neg("not_s", g), i))


def _choice_tautology(rng: random.Random, lattice: Lattice) -> str | None:
    subset = tuple(a for a in SIG3 if rng.random() < 0.8) or ("p",)
    conj = rng.choice(CONJUNCTIONS)
    f = choice(subset, conj)
    i = gen_interpretation(_seed(rng), SIG3, lattice)
    if evaluate(f, i) != ONE:
        return _cx(choice=print_formula(f), i=format_interpretation(i),
                   value=evaluate(f, i))


def _choice_widening(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, _ = _gen_fip(rng, lattice)
    y = rng.choice([v for v in lattice.points() if v > ZERO])
    exempt = tuple(a for a in SIG2 if rng.random() < 0.5)
    smaller = tuple(a for a in SIG2 if a not in exempt)
    wide = check_stable(f, i, SIG2, y, lattice)
    narrow = check_stable(f, i, smaller, y, lattice)
    if wide.status == "stable" and narrow.status == "unstable":
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   threshold=y, wide="stable", narrow="unstable",
                   minimized=smaller)


def _choice_exemption_control(lattice: Lattice) -> str | None:
    # Pinned negative control: below threshold 1 the exemption
    # equivalence is known to break.
    f = parse_formula("not_s not_s q")
    i = parse_interpretation("q=0.5")
    half = Fraction(1, 2)
    bare = check_stable(f, i, (), half, Lattice(2))
    freed = check_stable(Bin("&m", f, choice(("q",))), i, ("q",), half, Lattice(2))
    if bare.status != "stable" or freed.status != "unstable":
        return _cx(problem="the sub-threshold counterexample moved",
                   bare=bare.status, freed=freed.status)
    if freed.witness is None or freed.witness["q"] != ZERO:
        return _cx(problem="expected the witness q=0", witness=freed.witness)


def _choice_exemption(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, _ = _gen_fip(rng, lattice)
    exempt = tuple(a for a in SIG2 if rng.random() < 0.5) or ("q",)
    kept = tuple(a for a in SIG2 if a not in exempt)
    plain = check_stable(f, i, kept, ONE, lattice)
    freed = check_stable(Bin("&m", f, choice(exempt)), i, kept + exempt, ONE, lattice)
    if plain.status != freed.status:
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   exempt=exempt, plain=plain.status, freed=freed.status)


# transforms --------------------------------------------------------------


def _nneg_shape(rng: random.Random, lattice: Lattice) -> str | None:
    f = gen_formula(_seed(rng), SIG2, max_depth=3, operator_pool=ALL_OPERATORS,
                    allow_strongneg=True, lattice=lattice)
    result = nneg(f)
    names, _, negated = leaves(result.formula)
    if negated:
        return _cx(formula=print_formula(f), problem="strong negation survived")
    sig = atoms(f)
    if tuple(result.complements) != sig:
        return _cx(formula=print_formula(f), problem="complement map misses atoms",
                   complements=result.complements)
    if len(set(result.complements.values())) != len(sig):
        return _cx(formula=print_formula(f), problem="complement collision",
                   complements=result.complements)
    if result.signature != sig + tuple(result.complements[a] for a in sig):
        return _cx(formula=print_formula(f), problem="signature order",
                   signature=result.signature)
    if not set(names) <= set(result.signature):
        return _cx(formula=print_formula(f), problem="atoms left the signature")


# equilibrium --------------------------------------------------------------


def _paired_valuation_values(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, minimized = _gen_fip(rng, lattice)
    j = gen_lower_interpretation(_seed(rng), i, minimized, lattice)
    v = paired_valuation(j, i)
    t_lower = n5_evaluate(v, "t", f).lower
    h_lower = n5_evaluate(v, "h", f).lower
    if t_lower != evaluate(f, i):
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   j=format_interpretation(j), t_lower=t_lower,
                   value=evaluate(f, i))
    if h_lower != evaluate(fuzzy_reduct(f, i), j):
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   j=format_interpretation(j), h_lower=h_lower,
                   reduct_value=evaluate(fuzzy_reduct(f, i), j))


_EQ_STATUS = {"not_a_model": "not_a_model", "stable": "equilibrium",
              "unstable": "not_h_minimal"}


def _equilibrium_agreement(rng: random.Random, lattice: Lattice) -> str | None:
    f, i, _ = _gen_fip(rng, lattice)
    stable_status = check_stable(f, i, None, ONE, lattice).status
    eq_status = is_equilibrium(valuation_of(i), f, lattice).status
    if _EQ_STATUS[stable_status] != eq_status:
        return _cx(formula=print_formula(f), i=format_interpretation(i),
                   stable=stable_status, equilibrium=eq_status)


def _equilibrium_strongneg_agreement(rng: random.Random, lattice: Lattice) -> str | None:
    points = list(lattice.points())
    f = gen_formula(_seed(rng), SIG2, max_depth=3,
                    operator_pool=LATTICE_SAFE_OPERATORS,
                    allow_strongneg=True, lattice=lattice)
    data = {}
    values = {}
    result = nneg(f)
    for a in atoms(f):
        lo = rng.choice(points)
        hi = rng.choice([x for x in points if x >= lo])
        data[("h", a)] = data[("t", a)] = Interval(lo, hi)
        values[a] = lo
        values[result.complements[a]] = 1 - hi
    v = Valuation(data)
    eq_status = is_equilibrium(v, f, lattice).status
    stable_status = check_stable(result.formula, Interpretation(values),
                                 result.signature, ONE, lattice).status
    if _EQ_STATUS[stable_status] != eq_status:
        return _cx(formula=print_formula(f), valuation=str(v),
                   stable=stable_status, equilibrium=eq_status)


def _equilibrium_upper_bounds(rng: random.Random, lattice: Lattice) -> str | None:
    points = list(lattice.points())
    f = gen_formula(_seed(rng), SIG2, max_depth=3,
                    operator_pool=LATTICE_SAFE_OPERATORS, lattice=lattice)
    data = {}
    clipped = False
    for a in atoms(f):
        lo = rng.choice(points)
        hi = rng.choice([x for x in points if x >= lo])
        clipped = clipped or hi != ONE
        data[("h", a)] = data[("t", a)] = Interval(lo, hi)
    if not clipped:
        return None
    v = Valuation(data)
    if is_equilibrium(v, f, lattice).status == "equilibrium":
        return _cx(formula=print_formula(f), valuation=str(v),
                   problem="equilibrium with an upper bound below 1 "
                           "on a strong-negation-free formula")


def _strongly_negated(f: Formula, name: str) -> Formula:
    """f with every plain occurrence of `name` under '~' instead."""
    return fold(f, lambda x: StrongNeg(name) if x == Atom(name) else x,
                lambda x, *kids: Neg(x.op, *kids) if isinstance(x, Neg)
                else Bin(x.op, *kids))


def _equilibrium_lower_bounds(rng: random.Random, lattice: Lattice) -> str | None:
    points = list(lattice.points())
    negated = rng.choice(SIG2)
    f = gen_formula(_seed(rng), SIG2, max_depth=3,
                    operator_pool=LATTICE_SAFE_OPERATORS,
                    allow_strongneg=True, lattice=lattice)
    f = _strongly_negated(f, negated)
    sig = atoms(f)
    if negated not in sig:
        return None
    data = {}
    for a in sig:
        lo = rng.choice(points[1:] if a == negated else points)
        hi = rng.choice([x for x in points if x >= lo])
        data[("h", a)] = data[("t", a)] = Interval(lo, hi)
    v = Valuation(data)
    if is_equilibrium(v, f, lattice).status == "equilibrium":
        return _cx(formula=print_formula(f), valuation=str(v),
                   problem=f"equilibrium with a lower bound above 0 on {negated!r}, "
                           "which occurs only under '~'")


# registry ----------------------------------------------------------------

_EXHAUSTIVE_NOTE = "exhaustive over the lattice; the trial count is ignored"

# name -> (control, trial, note)
_SUITES: dict[str, tuple[Control | None, Trial | None, str]] = {
    "operator-axioms": (_operator_axioms, None, _EXHAUSTIVE_NOTE),
    "residual-flags": (_residual_flags, None, _EXHAUSTIVE_NOTE),
    "conjunction-bounds": (None, _conjunction_bounds, ""),
    "disjunction-bounds": (None, _disjunction_bounds, ""),
    "lattice-closure": (_lattice_closure, None, _EXHAUSTIVE_NOTE),
    "parse-print-roundtrip": (None, _parse_print_roundtrip, ""),
    "program-translation-shape": (None, _program_translation_shape, ""),
    "reduct-value-equality": (None, _reduct_value_equality, ""),
    "reduct-monotonicity": (None, _reduct_monotonicity, ""),
    "reduct-simplified-agreement": (None, _reduct_simplified_agreement, ""),
    "reduct-wrapper-counterexample": (
        _reduct_wrapper_counterexample, None,
        "pinned negative control; the trial count is ignored"),
    "compiled-evaluation-agreement": (None, _compiled_evaluation_agreement, ""),
    "fixpoint-agreement": (None, _fixpoint_agreement, ""),
    "empty-minimization": (None, _empty_minimization, ""),
    "threshold-guard-agreement": (None, _threshold_guard_agreement, ""),
    "shadow-rewrite-agreement": (None, _shadow_rewrite_agreement, ""),
    "shadow-merge-value": (None, _shadow_merge_value, ""),
    "boolean-correspondence": (None, _boolean_correspondence, ""),
    "crisp-stability-transfer": (None, _crisp_stability_transfer, ""),
    "program-oracle-agreement": (None, _program_oracle_agreement, ""),
    "constraint-conjunction": (None, _constraint_conjunction, ""),
    "choice-tautology": (None, _choice_tautology, ""),
    "choice-widening": (None, _choice_widening, ""),
    "choice-exemption": (_choice_exemption_control, _choice_exemption,
                         "includes a pinned sub-threshold negative control"),
    "nneg-shape": (None, _nneg_shape, ""),
    "paired-valuation-values": (None, _paired_valuation_values, ""),
    "equilibrium-agreement": (None, _equilibrium_agreement, ""),
    "equilibrium-strongneg-agreement": (None, _equilibrium_strongneg_agreement, ""),
    "equilibrium-upper-bounds": (None, _equilibrium_upper_bounds, ""),
    "equilibrium-lower-bounds": (None, _equilibrium_lower_bounds, ""),
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(
    name: str,
    trials: int = 500,
    seed: int = 0,
    lattice: Lattice = Lattice(4),
) -> PropertyReport:
    """Run the suite's control, then up to `trials` trials on one RNG
    seeded by the suite's name and `seed`, stopping at the first
    counterexample."""
    try:
        control, trial, note = _SUITES[name]
    except KeyError:
        known = ", ".join(_SUITES)
        raise ValueError(f"unknown suite {name!r} (known: {known})") from None
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    counterexample = control(lattice) if control else None
    if counterexample is None and trial:
        rng = _master(name, seed)
        for _ in range(trials):
            counterexample = trial(rng, lattice)
            if counterexample is not None:
                break
    return PropertyReport(name, counterexample is None, trials,
                          counterexample, note)


def run_all(
    trials: int = 500, seed: int = 0, lattice: Lattice = Lattice(4)
) -> list[PropertyReport]:
    return [run_suite(name, trials, seed, lattice) for name in _SUITES]
