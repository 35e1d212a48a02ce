import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzysm import (
    CONJUNCTIONS,
    DISJUNCTIONS,
    IMPLICATIONS,
    NEGATIONS,
    OPERATORS,
    Lattice,
    TruthError,
    UnknownOperatorError,
    check_truth,
    format_truth,
    lattice_closed,
    op_apply,
    op_check_axioms,
    parse_truth,
    residual_condition,
)
from fuzzysm.algebra import ResourceLimitError, candidates, read_json
from fuzzysm.syntax import ParseError, _Parser

F = Fraction


class TestTruthValues:
    def test_accepts_fraction_and_int(self):
        assert check_truth(F(3, 10)) == F(3, 10)
        assert check_truth(1) == F(1)
        assert check_truth(0) == F(0)

    def test_rejects_floats(self):
        with pytest.raises(TruthError, match="inexact"):
            check_truth(0.3)

    def test_rejects_bool(self):
        with pytest.raises(TruthError):
            check_truth(True)

    @pytest.mark.parametrize("bad", [F(-1, 10), F(11, 10), 2, -1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(TruthError, match="out of"):
            check_truth(bad)

    @pytest.mark.parametrize("text,value", [
        ("0.3", F(3, 10)),
        (".5", F(1, 2)),
        ("7/10", F(7, 10)),
        ("1", F(1)),
        ("0", F(0)),
        ("0.56", F(14, 25)),
    ])
    def test_parse(self, text, value):
        assert parse_truth(text) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(TruthError):
            parse_truth("half")

    @pytest.mark.parametrize("text", ["\u0660", "\u0660.\u0665", "1/\u0662", "\uff11"])
    def test_parse_rejects_non_ascii_digits(self, text):
        with pytest.raises(TruthError, match="not a rational truth degree"):
            parse_truth(text)

    @pytest.mark.parametrize("text", ["1e-5", "1E0", "1e-99999999", "+0.5", "-0",
                                      "1_0/2_0", "0.5_0", "1.", "1 / 2", "1/0"])
    def test_parse_reads_only_the_grammar_forms(self, text):
        with pytest.raises(TruthError, match="not a rational truth degree"):
            parse_truth(text)

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000", "\x0b", "\x0c", "\x85"])
    def test_parse_strips_only_the_lexer_spaces(self, space):
        assert parse_truth(" \t\r\n0.5 \r\n") == F(1, 2)
        for text in (space + "0.5", "0.5" + space):
            with pytest.raises(TruthError, match="not a rational truth degree"):
                parse_truth(text)

    def test_parse_agrees_with_the_formula_lexer(self):
        """A string has the form of a truth degree, whether in [0, 1] or
        not, exactly when the formula lexer reads it as one number token.
        A zero denominator is refused by both, by the lexer's parser."""
        rng = random.Random(5)
        for _ in range(3000):
            text = "".join(rng.choice("0123./e+-_ ") for _ in range(rng.randint(1, 5)))
            if re.search(r"/0+$", text.strip()):
                continue
            parser = None
            try:
                parser = _Parser(text.strip())
            except ParseError:
                pass
            one_number = parser is not None and parser.kinds == ["number", "end"]
            try:
                parse_truth(text)
                read = True
            except TruthError as exc:
                read = "out of" in str(exc)
            assert read == one_number, repr(text)

    @pytest.mark.parametrize("value,text", [
        (F(3, 10), "0.3"),
        (F(1, 4), "0.25"),
        (F(1, 20), "0.05"),
        (F(14, 25), "0.56"),
        (F(1, 8), "0.125"),
        (F(1), "1"),
        (F(0), "0"),
        (F(1, 3), "1/3"),
        (F(2, 7), "2/7"),
    ])
    def test_format_decimal(self, value, text):
        assert format_truth(value, decimal=True) == text
        assert parse_truth(text) == value

    def test_format_default_is_fraction(self):
        assert format_truth(F(3, 10)) == "3/10"

    @given(st.fractions(min_value=0, max_value=1))
    def test_format_parse_roundtrip(self, value):
        for decimal in (False, True):
            assert parse_truth(format_truth(value, decimal)) == value


# Hand-checked operator values.
PINNED = [
    ("&l", F(3, 10), F(9, 10), F(2, 10)),
    ("&l", F(1, 10), F(2, 10), F(0)),
    ("&m", F(3, 10), F(9, 10), F(3, 10)),
    ("&p", F(1, 2), F(1, 2), F(1, 4)),
    ("|l", F(3, 10), F(9, 10), F(1)),
    ("|l", F(1, 10), F(2, 10), F(3, 10)),
    ("|m", F(3, 10), F(9, 10), F(9, 10)),
    ("|p", F(1, 2), F(1, 2), F(3, 4)),
    ("->r", F(3, 10), F(9, 10), F(1)),
    ("->r", F(9, 10), F(3, 10), F(3, 10)),
    ("->s", F(9, 10), F(3, 10), F(3, 10)),
    ("->s", F(2, 10), F(1, 10), F(8, 10)),
    ("->l", F(9, 10), F(3, 10), F(4, 10)),
    ("->l", F(3, 10), F(9, 10), F(1)),
]


class TestOperators:
    @pytest.mark.parametrize("token,x,y,want", PINNED)
    def test_pinned_values(self, token, x, y, want):
        assert op_apply(token, x, y) == want

    def test_negation(self):
        assert op_apply("not_s", F(3, 10)) == F(7, 10)

    def test_unknown_operator(self):
        with pytest.raises(UnknownOperatorError):
            op_apply("&x", F(1), F(1))

    def test_families_cover_registry(self):
        grouped = set(CONJUNCTIONS) | set(DISJUNCTIONS) | set(IMPLICATIONS) | set(NEGATIONS)
        assert grouped == set(OPERATORS)

    def test_axioms_hold_on_lattices(self):
        for d in (1, 2, 6):
            lattice = Lattice(d)
            for token in OPERATORS:
                assert op_check_axioms(token, lattice) == []

    def test_residual_flags_match_lattice_sweep(self):
        lattice = Lattice(6)
        for token in IMPLICATIONS:
            assert residual_condition(token, lattice) == OPERATORS[token].residual

    def test_residual_values(self):
        assert OPERATORS["->r"].residual
        assert OPERATORS["->l"].residual
        assert not OPERATORS["->s"].residual


class TestLattice:
    def test_points(self):
        assert list(Lattice(2).points()) == [F(0), F(1, 2), F(1)]
        assert Lattice(10).size == 11

    def test_membership(self):
        lat = Lattice(10)
        assert F(3, 10) in lat
        assert F(1, 2) in lat  # 5/10 reduced
        assert F(1, 3) not in lat
        assert 0 in lat and 1 in lat and F(0) in lat and F(1) in lat
        assert F(-1, 10) not in lat and F(11, 10) not in lat
        assert 2 not in lat and -1 not in lat
        assert F(1, 3) in Lattice(6)

    def test_membership_agrees_with_the_definition(self):
        # value * D is a whole number, for value in [0, 1]
        values = [F(k, m) for m in range(1, 31) for k in range(-m, 2 * m + 1)]
        for d in range(1, 25):
            lat = Lattice(d)
            for v in values + [-1, 0, 1, 2]:
                assert (v in lat) == (0 <= v <= 1 and (v * d).denominator == 1), (v, d)

    def test_points_built_once(self):
        lat = Lattice(6)
        first = lat.points()
        assert iter(first) is first  # still an iterator, not the tuple
        again = list(lat.points())
        assert again == [F(k, 6) for k in range(7)] == list(first)
        assert all(a is b for a, b in zip(again, lat.points()))
        assert lat == Lattice(6) and hash(lat) == hash(Lattice(6))

    def test_points_up_to(self):
        assert Lattice(4).points_up_to(F(1, 2)) == [F(0), F(1, 4), F(1, 2)]

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            Lattice(0)

    def test_closure_flags(self):
        lat = Lattice(10)
        assert lattice_closed("&l", lat)
        assert lattice_closed("&m", lat)
        assert not lattice_closed("&p", lat)
        assert not lattice_closed("|p", lat)
        # On the two-point lattice even the product operators are closed.
        assert lattice_closed("&p", Lattice(1))

    def test_closure_flags_match_declarations(self):
        lat = Lattice(6)
        for token, op in OPERATORS.items():
            assert lattice_closed(token, lat) == op.lattice_closed


class TestCandidates:
    def test_product_order(self):
        assert list(candidates([[0, 1], "abc"], 6)) == [
            (0, "a"), (0, "b"), (0, "c"), (1, "a"), (1, "b"), (1, "c")]

    def test_skip(self):
        assert list(candidates([[0, 1], [0, 1]], 4, skip=(1, 0))) == [
            (0, 0), (0, 1), (1, 1)]

    def test_empty_pool_list(self):
        assert list(candidates([], 1)) == [()]
        assert list(candidates([], 1, skip=())) == []

    def test_cap_raised_at_call(self):
        # The error comes from the call itself, before any iteration.
        with pytest.raises(ResourceLimitError, match="6 candidates exceed the cap of 5"):
            candidates([[0, 1], [0, 1, 2]], 5)


class TestReadJson:
    def test_numbers_are_exact(self):
        assert read_json('{"a": 0.1, "b": [1, 0.20], "c": "0.3"}') == {
            "a": F(1, 10), "b": [F(1), F(1, 5)], "c": "0.3"}

    @pytest.mark.parametrize("number", ["2e-1", "2E-1", "1e-99999999", "-0.5e0", "1e5"])
    def test_exponent_refused(self, number):
        with pytest.raises(ValueError, match="has an exponent"):
            read_json(f'{{"a": [0, {number}]}}')

    def test_repeated_key_refused_at_any_depth(self):
        for text in ('{"a": 1, "a": 2}', '{"a": {"b": 1, "b": 1}}'):
            with pytest.raises(ValueError, match="'.' appears twice"):
                read_json(text)

    @pytest.mark.parametrize("text", ["[1]", "0.5", '"p"', "null"])
    def test_top_level_must_be_an_object(self, text):
        with pytest.raises(ValueError, match="must be an object"):
            read_json(text)
