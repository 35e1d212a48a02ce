"""Refusals that the rest of the suite never reaches, each pinned to its
current message: two on the command line, the rest in the library."""
import re
from fractions import Fraction

import pytest

from fuzzysm import (
    Interpretation,
    Lattice,
    SignatureError,
    parse_fasp_program,
    parse_formula,
    program_to_formula,
    star_transform,
)
from fuzzysm.algebra import op_apply
from fuzzysm.cli import main
from fuzzysm.stable import fasp_answer_set_check, strategy_from_json
from fuzzysm.syntax import conjoin


@pytest.mark.parametrize("argv, err", [
    (["--interp", "p=1", "--strategy", "sampled:0"],
     "error: the sample count must be positive\n"),
    (["--interp", "@"], "error: --interp @FILE needs a file name after '@'\n"),
])
def test_check_refuses(capsys, argv, err):
    code = main(["check", "--expr", "p", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)


def test_unknown_strategy_kind():
    with pytest.raises(ValueError, match="^unknown strategy kind 'nope'$"):
        strategy_from_json({"kind": "nope"})


def test_star_transform_needs_a_fresh_name_per_minimized_atom():
    f = parse_formula("p ->r q")
    with pytest.raises(ValueError, match="^no fresh name for minimized atom 'p'$"):
        star_transform(f, ["p"], {})
    with pytest.raises(ValueError, match=re.escape(
            "fresh atoms collide with the signature: ['q']")):
        star_transform(f, ["p"], {"p": "q"})


def test_program_oracle_needs_every_atom():
    rules = parse_fasp_program("p <- q.", "&m")
    with pytest.raises(SignatureError, match="^atom 'q' is not interpreted$"):
        fasp_answer_set_check(rules, Interpretation({"p": Fraction(1)}), Lattice(2))


def test_op_apply_counts_arguments():
    with pytest.raises(ValueError, match="^&m expects 2 arguments, got 1$"):
        op_apply("&m", Fraction(1))


def test_conjoin_needs_a_part():
    with pytest.raises(ValueError, match="^cannot conjoin zero formulas$"):
        conjoin("&m", [])


def test_programs_take_only_a_conjunction():
    rules = parse_fasp_program("p <- q.", "&m")
    for read in (lambda: parse_fasp_program("p <- q.", "|m"),
                 lambda: program_to_formula(rules, "|m")):
        with pytest.raises(ValueError, match="^'\\|m' is not a conjunction operator$"):
            read()
