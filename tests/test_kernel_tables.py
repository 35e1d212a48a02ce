"""The compiled kernel's connective tables, checked against algebra's
registry, and the kernel on the domains that have no tables (integer
numerators over a denominator above the bound, Fractions), checked
against semantics.evaluate and fuzzy_reduct."""
import random
from fractions import Fraction as F

import pytest

from fuzzysm import (
    Exhaustive,
    Lattice,
    evaluate,
    find_witness,
    parse_formula,
    print_formula,
)
from fuzzysm import compiled
from fuzzysm.algebra import OPERATORS
from fuzzysm.compiled import _TABLE_BOUND, _table, compile_formula
from fuzzysm.generators import ALL_OPERATORS, gen_formula, gen_interpretation
from witness_reference import reference_witness

SIG2 = ("p", "q")
CLOSED = tuple(t for t, op in OPERATORS.items() if op.lattice_closed)


def test_every_lattice_closed_connective_has_a_table():
    assert set(CLOSED) == set(compiled._numerator_fns(4))


@pytest.mark.parametrize("d", [*range(1, 13), _TABLE_BOUND])
def test_tables_are_the_registry_connectives(d):
    for token in CLOSED:
        op = OPERATORS[token]
        table = _table(token, d)
        assert len(table) == d + 1
        for x, row in enumerate(table):
            assert len(row) == d + 1
            for y, value in enumerate(row):
                args = (F(x, d),) if op.arity == 1 else (F(x, d), F(y, d))
                assert type(value) is int and F(value, d) == op.fn(*args), (token, d, x, y)


def test_each_table_is_built_once_per_connective_and_denominator(monkeypatch):
    built = []

    def counting(d):
        built.append(d)
        return numerator_fns(d)

    numerator_fns = compiled._numerator_fns
    monkeypatch.setattr(compiled, "_numerator_fns", counting)
    _table.cache_clear()
    texts = ("p &l q", "(p &l q) |m not_s (q &l p)", "not_s p &l (q ->r p)")
    progs = {d: [compile_formula(parse_formula(t), SIG2, Lattice(d)) for t in texts]
             for d in (5, 7)}
    # &l, |m, not_s and ->r, once for each denominator.
    assert sorted(built) == [5] * 4 + [7] * 4
    for d, (first, second, third) in progs.items():
        assert first.code[0][1] is second.code[0][1] is _table("&l", d)
        assert third.code[-1][1] is first.code[0][1]
    assert progs[5][0].code[0][1] is not progs[7][0].code[0][1]
    # Above the bound the connectives are not tabulated.
    prog = compile_formula(parse_formula("p &l q"), SIG2, Lattice(_TABLE_BOUND + 1))
    assert prog.integer and isinstance(prog.code[0][1], compiled._Rows)
    assert _table.cache_info().currsize == 8


@pytest.mark.parametrize("integer", [True, False])
def test_untabled_domains_agree_with_the_reference(integer):
    """Integer numerators over D = bound + 1, and Fractions over D = 4
    (product connectives and constants off the lattice): every connective
    runs through the same kernel as a wrapped function, and the value at I
    and the first witness below I (one minimized atom, at I's value and at
    a threshold below it) are the reference's."""
    rng = random.Random(20)
    lattice = Lattice(_TABLE_BOUND + 1 if integer else 4)
    tested = 0
    while tested < 60:
        # Values of I on the 1/5 lattice lie on the 1/65 one as well.
        f = gen_formula(rng.randrange(2 ** 32), SIG2, max_depth=3,
                        operator_pool=None if integer else ALL_OPERATORS,
                        lattice=Lattice(5) if integer else Lattice(12))
        i = gen_interpretation(rng.randrange(2 ** 32), SIG2, Lattice(5) if integer else lattice)
        prog = compile_formula(f, SIG2, lattice, [i[a] for a in SIG2])
        if prog.integer != integer or not prog.code:
            continue
        tested += 1
        assert all(isinstance(ins[1], compiled._Rows) for ins in prog.code)
        value = evaluate(f, i)
        at_i = prog.evaluate([prog.domain(i[a]) for a in SIG2])
        assert prog.value(at_i[prog.root]) == value, (print_formula(f), dict(i))
        minimized = [rng.choice(SIG2)]
        for y in {value, rng.choice(lattice.points_up_to(value))}:
            if y == 0:
                continue
            got = find_witness(f, i, minimized, y, lattice, Exhaustive())
            want = reference_witness(f, i, minimized, y, lattice)
            assert got == want, (print_formula(f), dict(i), minimized, y)
