"""Every formula rewrite on a 10000-rule chain program, far past the
recursion limit, and the interval engine's model tests on it.  Rewrites
are compared as text, which names what differs; ==, hash and repr on the
tree itself are checked on their own."""
import re
from fractions import Fraction

import pytest

from fuzzysm import (
    BoolInterpretation,
    Interpretation,
    Lattice,
    ResourceLimitError,
    boolean_embed,
    classical_reduct,
    fuzzy_reduct,
    is_equilibrium,
    is_n5_model,
    nneg,
    parse_fasp_program,
    parse_formula,
    print_formula,
    program_to_formula,
    shadow_names,
    star_transform,
    valuation_of,
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


def test_equality_hash_and_repr(chain, printed):
    parsed = parse_formula(printed)
    assert parsed is not chain and parsed == chain
    assert hash(parsed) == hash(chain)
    text = repr(chain)
    assert text.startswith("Bin(op='&m', left=Bin(op='&m', left=")
    # the fact's '->r', then per rule '&m' and '->r', and the '&m' joining it
    assert text.count("Bin(") == 1 + 3 * N
    assert text.count("Neg(op='not_s', body=Atom(name='q") == N


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


@pytest.fixture(scope="module")
def model():
    """The chain's model, every p true and every q false, and a copy with
    one p in the middle lowered to 0, which breaks the rule deriving it."""
    i = {a: Fraction(a[0] == "p") for a in SIGNATURE}
    return valuation_of(i), valuation_of({**i, f"p{N // 2}": Fraction(0)})


def test_is_n5_model(chain, model):
    at_model, lowered = model
    assert is_n5_model(at_model, chain)
    assert not is_n5_model(lowered, chain)


def test_is_equilibrium(chain, model):
    at_model, lowered = model
    assert is_equilibrium(lowered, chain).status == "not_a_model"
    # Each p0..p10000 at [1, 1] widens to 11 h-intervals over 1/10: the
    # h-minimality scan has 11^10001 candidates, refused before the first.
    with pytest.raises(ResourceLimitError,
                       match=r"^about 10\^10415 candidates exceed the cap"):
        is_equilibrium(at_model, chain)
