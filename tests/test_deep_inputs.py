"""Every formula rewrite on a 10000-rule chain program, far past the
recursion limit.  Results are compared as text: the dataclass == and hash
of a formula this deep still recurse."""
import re
from fractions import Fraction

import pytest

from fuzzysm import (
    BoolInterpretation,
    Interpretation,
    Lattice,
    boolean_embed,
    classical_reduct,
    fuzzy_reduct,
    nneg,
    parse_fasp_program,
    parse_formula,
    print_formula,
    program_to_formula,
    shadow_names,
    star_transform,
)
from fuzzysm.compiled import compile_formula

N = 10_000
SIGNATURE = ("p0",) + tuple(a for k in range(N) for a in (f"q{k}", f"p{k + 1}"))


def chain_text(rule) -> str:
    """The printed chain, rule k rendered by rule(k) inside its parentheses."""
    return "(1 ->r p0)" + "".join(f" &m ({rule(k)})" for k in range(N))


@pytest.fixture(scope="module")
def chain():
    text = "p0.\n" + "".join(f"p{k + 1} <- p{k}, not q{k}.\n" for k in range(N))
    return program_to_formula(parse_fasp_program(text, "&m"), "&m")


@pytest.fixture(scope="module")
def printed(chain):
    return print_formula(chain)


def test_print_parse_round_trip(printed):
    assert printed == chain_text(lambda k: f"p{k} &m not_s q{k} ->r p{k + 1}")
    assert print_formula(parse_formula(printed)) == printed


def test_fuzzy_reduct(chain, printed):
    model = Interpretation({a: Fraction(a[0] == "p") for a in SIGNATURE})
    assert print_formula(fuzzy_reduct(chain, model)) == re.sub(
        r"not_s q\d+", "1", printed)


def test_classical_reduct(chain, printed):
    model = BoolInterpretation(SIGNATURE, frozenset(a for a in SIGNATURE if a[0] == "p"))
    assert print_formula(classical_reduct(chain, model)) == re.sub(
        r"not_s q\d+", "1", printed)


def test_nneg(chain, printed):
    formula, _, signature = nneg(chain)
    assert signature == SIGNATURE + tuple("n" + a for a in SIGNATURE)
    guards = []
    for _ in SIGNATURE:  # the guards are conjoined on the right, last outermost
        formula, guard = formula.left, formula.right
        guards.append(print_formula(guard))
    assert guards[::-1] == [f"not_s ({a} &l n{a})" for a in SIGNATURE]
    assert print_formula(formula) == printed


def test_boolean_embed(chain, printed):
    assert print_formula(boolean_embed(chain)) == printed.replace("->r", "->s")


def test_star_transform(chain):
    star = star_transform(chain, SIGNATURE, shadow_names(SIGNATURE, SIGNATURE))
    assert print_formula(star) == "(1 ->r p0_shadow) &m (1 ->r p0)" + "".join(
        f" &m ((p{k}_shadow &m not_s q{k} ->r p{k + 1}_shadow)"
        f" &m (p{k} &m not_s q{k} ->r p{k + 1}))" for k in range(N))


def test_compile_formula(chain):
    prog = compile_formula(chain, SIGNATURE, Lattice(2))
    # one '->r' for the fact, then '&m', 'not_s', '->r' and the joining '&m'
    assert len(prog.code) == 1 + 4 * N
    at_model = prog.evaluate([2 if a[0] == "p" else 0 for a in SIGNATURE])
    assert at_model[prog.root] == 2
