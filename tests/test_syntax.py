import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzzysm import (
    Atom,
    Bin,
    Const,
    Neg,
    ParseError,
    StrongNeg,
    atoms,
    conjoin,
    parse_fasp_program,
    parse_formula,
    print_formula,
    program_to_formula,
    rule_to_formula,
    signature_of,
)
from fuzzysm.generators import ALL_OPERATORS, gen_formula
from fuzzysm.syntax import MAX_NESTING, fold, leaves, walk

F = Fraction


class TestParsing:
    def test_atom(self):
        assert parse_formula("p") == Atom("p")

    def test_numbers(self):
        assert parse_formula("0.3") == Const(F(3, 10))
        assert parse_formula("7/10") == Const(F(7, 10))
        assert parse_formula(".5") == Const(F(1, 2))

    def test_negation_and_strongneg(self):
        assert parse_formula("not_s p") == Neg("not_s", Atom("p"))
        assert parse_formula("~p") == StrongNeg("p")
        assert parse_formula("not_s ~p") == Neg("not_s", StrongNeg("p"))

    def test_strongneg_needs_atom(self):
        with pytest.raises(ParseError, match="single atom"):
            parse_formula("~(p &m q)")

    def test_implication_right_associative(self):
        f = parse_formula("a ->r b ->r c")
        assert f == Bin("->r", Atom("a"), Bin("->r", Atom("b"), Atom("c")))

    def test_conjunction_left_associative(self):
        f = parse_formula("a &m b &m c")
        assert f == Bin("&m", Bin("&m", Atom("a"), Atom("b")), Atom("c"))

    def test_precedence(self):
        f = parse_formula("a &m b |m c ->r d")
        assert f == Bin("->r",
                        Bin("|m", Bin("&m", Atom("a"), Atom("b")), Atom("c")),
                        Atom("d"))

    def test_mixed_kinds_group_left(self):
        f = parse_formula("a &m b &l c")
        assert f == Bin("&l", Bin("&m", Atom("a"), Atom("b")), Atom("c"))

    def test_comments_and_newlines(self):
        f = parse_formula("# header\np &m # inline\n q\n")
        assert f == Bin("&m", Atom("p"), Atom("q"))

    def test_bare_amp_needs_kind(self):
        with pytest.raises(ParseError, match="kind suffix"):
            parse_formula("p & q")

    def test_error_carries_position(self):
        with pytest.raises(ParseError, match="line 2, column 7"):
            parse_formula("p &m\n(q |l ")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_formula("p q")

    def test_unknown_arrow(self):
        with pytest.raises(ParseError):
            parse_formula("p ->x q")

    def test_constant_out_of_range(self):
        with pytest.raises(ParseError):
            parse_formula("3/2")


def _program(text):
    return parse_fasp_program(text, "&m")


_NEEDS_ATOM = "expected an atom, a constant, '(' or a negation (found 'end of input')"


class TestLexicalErrors:
    """Each lexical branch, pinned by its exact message and position."""

    @pytest.mark.parametrize("parse, text, line, col, message", [
        (parse_formula, "p & q", 1, 3, "operator '&' needs a kind suffix (l, m or p)"),
        (parse_formula, "p | q", 1, 3, "operator '|' needs a kind suffix (l, m or p)"),
        (parse_formula, "p &x q", 1, 3, "operator '&' needs a kind suffix (l, m or p)"),
        (parse_formula, "p ->x q", 1, 3, "expected 'r', 's' or 'l' after '->'"),
        (parse_formula, "p - q", 1, 3, "expected '->'"),
        (parse_formula, "p -", 1, 3, "expected '->'"),
        (parse_formula, "p < q", 1, 3, "expected '<-'"),
        (parse_formula, "p $ q", 1, 3, "unexpected character '$'"),
        (parse_formula, "p &m \u00e9", 1, 6, "unexpected character '\u00e9'"),
        (parse_formula, "p &m\x00", 1, 5, "unexpected character '\\x00'"),
        (parse_formula, "p\x0c&m q", 1, 2, "unexpected character '\\x0c'"),  # not a space
        (parse_formula, "p &m \u0663", 1, 6, "unexpected character '\u0663'"),
        # digits are ASCII only
        (parse_formula, "\u0660", 1, 1, "unexpected character '\u0660'"),
        (parse_formula, "1/\u0662", 1, 2, "unexpected character '/'"),
        (parse_formula, "0.\u0665", 1, 3, "unexpected character '\u0665'"),
        (parse_formula, "p &m \uff11", 1, 6, "unexpected character '\uff11'"),
        (parse_formula, "p &m 0..5", 1, 7, "trailing input after formula (found '.')"),
        (parse_formula, "p &m   ", 1, 8, _NEEDS_ATOM),
        (parse_formula, "p &m # c", 1, 6, _NEEDS_ATOM),  # where '#' stands
        (parse_formula, "p &m # c\n", 2, 1, _NEEDS_ATOM),
        (parse_formula, "\tp &m $", 1, 7, "unexpected character '$'"),  # a tab is one column
        (parse_formula, "p &m\r\nq &m\r\n$", 3, 1, "unexpected character '$'"),
        (parse_formula, "p\r$", 1, 3, "unexpected character '$'"),
        (_program, "a | b.", 1, 3, "operator '|' needs a kind suffix (l, m or p)"),
        (_program, "p <- q, &r.", 1, 9, "operator '&' needs a kind suffix (l, m or p)"),
        (_program, "p <- q <", 1, 8, "expected '<-'"),
        # the first lexical error, before any grammar error
        (parse_formula, "p &m \u00b2", 1, 6, "unexpected character '\u00b2'"),
        (parse_formula, "p &", 1, 3, "operator '&' needs a kind suffix (l, m or p)"),
        (parse_formula, "p |", 1, 3, "operator '|' needs a kind suffix (l, m or p)"),
        (parse_formula, "p ->", 1, 3, "expected 'r', 's' or 'l' after '->'"),
        (parse_formula, "p q & r", 1, 5, "operator '&' needs a kind suffix (l, m or p)"),
        (_program, "p <- q &", 1, 8, "operator '&' needs a kind suffix (l, m or p)"),
    ])
    def test_message_and_position(self, parse, text, line, col, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"line {line}, column {col}: {message}"
        assert (exc.value.line, exc.value.col) == (line, col)


class TestNestingGuard:
    """Parentheses, 'not_s' and right-nested implications share one depth
    count, refused past MAX_NESTING with the position of the token that
    opens the level too many."""

    @pytest.mark.parametrize("make, col", [
        (lambda n: "\n" + "(" * n + "p" + ")" * n, lambda n: n),
        (lambda n: "\n" + "not_s " * n + "p", lambda n: 6 * (n - 1) + 1),
        (lambda n: "\n" + " ->r ".join(["p"] * (n + 1)), lambda n: 6 * (n - 1) + 3),
        (lambda n: "\n" + "not_s (" * (n // 2) + "not_s " * (n % 2) + "p" + ")" * (n // 2),
         lambda n: 7 * (n // 2) + 1),
    ])
    def test_bound(self, make, col):
        for depth in (MAX_NESTING - 1, MAX_NESTING):
            parse_formula(make(depth))
        with pytest.raises(ParseError, match="nests more than") as exc:
            parse_formula(make(MAX_NESTING + 1))
        assert (exc.value.line, exc.value.col) == (2, col(MAX_NESTING + 1))

    def test_depth_is_per_branch(self):
        side = "(" * MAX_NESTING + "p" + ")" * MAX_NESTING
        parse_formula(f"{side} &m {side} |m {side} ->r p")


class TestPrinting:
    @pytest.mark.parametrize("text", [
        "p",
        "not_s q ->r p",
        "(not_s q ->r p) &m (not_s p ->r q)",
        "a &m (b &m c)",
        "a ->r b ->r c",
        "(a ->r b) ->r c",
        "~p &l not_s q",
        "0.5 ->r p",
        "a &m b |m c ->r d",
    ])
    def test_canonical_forms_are_stable(self, text):
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f

    def test_minimal_parens(self):
        f = parse_formula("(a &m b) |m c")
        assert print_formula(f) == "a &m b |m c"

    def test_structural_parens_kept(self):
        f = Bin("&m", Atom("a"), Bin("&m", Atom("b"), Atom("c")))
        assert print_formula(f) == "a &m (b &m c)"

    def test_const_prints_decimal(self):
        assert print_formula(Const(F(1, 2))) == "0.5"
        assert print_formula(Const(F(1, 3))) == "1/3"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 62))
    def test_roundtrip_generated(self, seed):
        f = gen_formula(seed, ("p", "q", "r"), max_depth=4,
                        operator_pool=ALL_OPERATORS, allow_strongneg=True)
        assert parse_formula(print_formula(f)) == f


class TestNodes:
    def test_const_validates(self):
        with pytest.raises(Exception):
            Const(0.3)

    def test_neg_requires_negation_family(self):
        with pytest.raises(ValueError):
            Neg("&m", Atom("p"))

    def test_bin_rejects_unary(self):
        with pytest.raises(ValueError):
            Bin("not_s", Atom("p"), Atom("q"))

    def test_repr_is_the_dataclass_repr(self):
        assert repr(parse_formula("not_s p ->r 0.5 &m ~q")) == (
            "Bin(op='->r', left=Neg(op='not_s', body=Atom(name='p')), "
            "right=Bin(op='&m', left=Const(value=Fraction(1, 2)), "
            "right=StrongNeg(name='q')))")

    def test_equality_and_hash(self):
        f = parse_formula("not_s p ->r q &m ~r")
        assert f == parse_formula("not_s p ->r q &m ~r")
        assert hash(f) == hash(parse_formula("not_s p ->r q &m ~r"))
        for other in ("not_s p ->r q &l ~r", "not_s p ->s q &m ~r",
                      "not_s p ->r q &m r", "p ->r q &m ~r"):
            assert f != parse_formula(other)
        assert f.left != Atom("p") and f != "not_s p ->r q &m ~r"

    def test_atoms_first_occurrence_order(self):
        f = parse_formula("q &m p &m q &m ~r")
        assert atoms(f) == ("q", "p", "r")

    def test_atoms_leaves_no_cyclic_garbage(self):
        f = parse_formula("q &m not_s (p ->r ~r)")
        gc.collect()
        gc.disable()
        try:
            atoms(f)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_atoms_of_a_deep_conjunction(self):
        names = [f"a{k}" for k in range(5000)]
        assert atoms(conjoin("&m", [Atom(a) for a in names])) == tuple(names)

    def test_leaves_agree_with_walk(self):
        """leaves' order is atoms', and its plain and negated names are
        the atoms and the strong negations that walk yields."""
        seen = 0
        for seed in range(2000):
            f = gen_formula(seed, ("p", "q", "r"), max_depth=3,
                            operator_pool=ALL_OPERATORS, allow_strongneg=True)
            nodes = list(walk(f))
            negated = {x.name for x in nodes if isinstance(x, StrongNeg)}
            if not negated:
                continue
            seen += 1
            assert leaves(f) == (
                atoms(f), {x.name for x in nodes if isinstance(x, Atom)}, negated)
            assert atoms(f) == tuple(dict.fromkeys(
                x.name for x in nodes if isinstance(x, (Atom, StrongNeg))))
            if seen == 300:
                break
        assert seen == 300

    def test_fold_calls_in_post_order(self):
        f = parse_formula("not_s (p &m ~q) ->r 0.5")
        calls = []

        def leaf(x):
            calls.append(print_formula(x))
            return len(calls)

        def node(x, *parts):
            calls.append((x.op, parts))
            return len(calls)

        assert fold(f, leaf, node) == 6
        assert calls == ["p", "~q", ("&m", (1, 2)), ("not_s", (3,)), "0.5",
                         ("->r", (4, 5))]

    def test_signature_of_merges(self):
        f = parse_formula("p &m q")
        assert signature_of(f, extra=("r", "p")) == ("p", "q", "r")

    def test_conjoin(self):
        parts = [Atom("a"), Atom("b"), Atom("c")]
        assert conjoin("&m", parts) == Bin("&m", Bin("&m", Atom("a"), Atom("b")), Atom("c"))
        assert conjoin("&m", [Atom("a")]) == Atom("a")


class TestPrograms:
    def test_basic_program(self):
        rules = parse_fasp_program("p <- q, not r.\nq.\n", "&m")
        assert len(rules) == 2
        assert rules[0].head == Atom("p")
        assert rules[0].pos == (Atom("q"),)
        assert rules[0].neg == (Atom("r"),)
        assert rules[1].pos == ()

    def test_rule_to_formula(self):
        rules = parse_fasp_program("p <- q, not r.", "&m")
        f = rule_to_formula(rules[0])
        assert f == Bin("->r",
                        Bin("&m", Atom("q"), Neg("not_s", Atom("r"))),
                        Atom("p"))

    def test_fact_translates_with_unit_body(self):
        rules = parse_fasp_program("p.", "&m")
        assert rule_to_formula(rules[0]) == Bin("->r", Const(F(1)), Atom("p"))

    def test_constant_head_constraint_style(self):
        rules = parse_fasp_program("0.8 <- not p.", "&l")
        f = rule_to_formula(rules[0])
        assert f == Bin("->r", Neg("not_s", Atom("p")), Const(F(8, 10)))

    def test_program_to_formula_joins(self):
        rules = parse_fasp_program("p <- q.\nq.", "&m")
        f = program_to_formula(rules, "&m")
        assert f == Bin("&m", rule_to_formula(rules[0]), rule_to_formula(rules[1]))

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError, match="empty program"):
            program_to_formula([], "&m")

    def test_disjunctive_head_diagnostic(self):
        with pytest.raises(ParseError, match="disjunctive rule heads"):
            parse_fasp_program("p |m q <- r.", "&m")

    def test_negation_in_head_rejected(self):
        with pytest.raises(ParseError):
            parse_fasp_program("not p <- q.", "&m")

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_fasp_program("p <- q", "&m")

    def test_body_conjunction_parameter(self):
        rules = parse_fasp_program("p <- a, b.", "&l")
        f = rule_to_formula(rules[0])
        assert f == Bin("->r", Bin("&l", Atom("a"), Atom("b")), Atom("p"))

    def test_comments_in_programs(self):
        rules = parse_fasp_program("# facts\np. # p holds\nq <- p.", "&m")
        assert len(rules) == 2
