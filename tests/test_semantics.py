import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzzysm import semantics
from fuzzysm import (
    Atom,
    Bin,
    BoolInterpretation,
    Const,
    Formula,
    Neg,
    Interpretation,
    SignatureError,
    StrongNegationError,
    TruthError,
    bool_satisfies,
    check_stable,
    classical_reduct,
    evaluate,
    format_interpretation,
    fuzzy_reduct,
    interpretation_to_json,
    parse_formula,
    parse_interpretation,
    print_formula,
    satisfies,
    value_is_one,
    walk,
)
from fuzzysm.generators import ALL_OPERATORS, gen_formula, gen_interpretation
from fuzzysm.semantics import _reduct

F = Fraction


class TestInterpretation:
    def test_mapping_behavior(self):
        i = Interpretation({"p": F(3, 10), "q": 1})
        assert i["p"] == F(3, 10)
        assert set(i) == {"p", "q"}
        assert len(i) == 2

    def test_rejects_floats(self):
        with pytest.raises(TruthError):
            Interpretation({"p": 0.3})

    def test_missing_atom_is_signature_error(self):
        i = Interpretation({"p": F(1)})
        with pytest.raises(SignatureError, match="'q' is not interpreted"):
            i["q"]

    def test_membership_and_get_on_a_missing_atom(self):
        i = Interpretation({"p": F(1)})
        assert "p" in i and "q" not in i
        assert i.get("p") == F(1)
        assert i.get("q") is None and i.get("q", F(0)) == F(0)

    def test_updated_returns_new(self):
        i = Interpretation({"p": F(1), "q": F(0)})
        j = i.updated({"q": F(1, 2)})
        assert j["q"] == F(1, 2) and i["q"] == F(0)

    def test_equality_and_hash(self):
        a = Interpretation({"p": F(1, 2), "q": F(1)})
        b = Interpretation({"q": F(1), "p": F(1, 2)})
        assert a == b and hash(a) == hash(b)

    def test_parse_text(self):
        i = parse_interpretation("p=0.3, q=7/10")
        assert i["p"] == F(3, 10) and i["q"] == F(7, 10)

    def test_parse_json_numbers_exact(self):
        i = parse_interpretation('{"p": 0.7, "q": "3/10", "r": 1}')
        assert i["p"] == F(7, 10)  # exactly, not the binary float
        assert i["q"] == F(3, 10)
        assert i["r"] == F(1)

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError, match="twice"):
            parse_interpretation("p=1, p=0")

    def test_parse_json_rejects_duplicates(self):
        # json.loads alone keeps the last value of a repeated key
        with pytest.raises(ValueError, match="'p' appears twice"):
            parse_interpretation('{"p": "1", "q": 0, "p": "0"}')

    def test_json_roundtrip(self):
        i = Interpretation({"p": F(14, 25), "q": F(0)})
        data = interpretation_to_json(i)
        assert data == {"p": "14/25", "q": "0"}
        back = parse_interpretation(json.dumps(data))
        assert back == i

    def test_format(self):
        i = Interpretation({"p": F(1, 2), "q": F(1, 3)})
        assert format_interpretation(i) == "p=0.5, q=1/3"


class TestEvaluate:
    @pytest.mark.parametrize("text,interp,value", [
        ("not_s q ->r p", "p=0.3, q=0.7", F(1)),
        ("not_s q ->r p", "p=0.2, q=0.7", F(2, 10)),
        ("p &p q", "p=0.5, q=0.5", F(1, 4)),
        ("p |p q", "p=0.5, q=0.5", F(3, 4)),
        ("0.6 ->r (1 ->r p)", "p=0.6", F(1)),
        ("not_s (p &l q)", "p=0.3, q=0.7", F(1)),
        ("p ->l q", "p=0.9, q=0.3", F(4, 10)),
        ("p ->s q", "p=0.9, q=0.3", F(3, 10)),
    ])
    def test_pinned(self, text, interp, value):
        assert evaluate(parse_formula(text), parse_interpretation(interp)) == value

    def test_missing_atom(self):
        with pytest.raises(SignatureError):
            evaluate(parse_formula("p &m q"), Interpretation({"p": F(1)}))

    def test_strongneg_refused(self):
        with pytest.raises(StrongNegationError):
            evaluate(parse_formula("~p"), Interpretation({"p": F(1)}))

    def test_satisfies_thresholds(self):
        f = parse_formula("not_s p ->r q")
        i = parse_interpretation("p=0, q=0.6")
        assert satisfies(f, i, F(6, 10))
        assert not satisfies(f, i, F(7, 10))
        assert not satisfies(f, i)  # threshold 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 62))
    def test_value_is_one_agrees(self, seed):
        f = gen_formula(seed, ("p", "q"), max_depth=4,
                        operator_pool=ALL_OPERATORS)
        i = gen_interpretation(seed + 1, ("p", "q"))
        assert value_is_one(f, i) == (evaluate(f, i) == 1)

    @pytest.mark.parametrize("text, want", [
        ("((p |m q) |m r) |m (s ->r p)", True),
        ("(p |m q) &m (r ->r (s &l p))", False),
        ("((p ->r q) &m (q ->r r)) &l ((r |l s) &p not_s s)", False),
    ])
    def test_value_is_one_visits_each_node_once(self, monkeypatch, text, want):
        # Every node reached goes through evaluate, the recursive calls
        # included, so the calls count the visits.
        f = parse_formula(text)
        i = Interpretation(dict.fromkeys("pqrs", F(1, 2)))
        visits = []

        def counted(g, j):
            visits.append(g)
            return evaluate(g, j)

        monkeypatch.setattr(semantics, "evaluate", counted)
        assert value_is_one(f, i) is want
        assert len(visits) <= len(list(walk(f)))

    @pytest.mark.parametrize("text, i, error", [
        ("p |m ~q", {"p": 1, "q": 0}, StrongNegationError),
        ("p |m q", {"p": 1}, SignatureError),
        ("(p |l q) &m r", {"p": 1, "r": 1}, SignatureError),
    ])
    def test_satisfies_raises_where_evaluate_does(self, text, i, error):
        # A t-conorm with an arm at 1 is evaluated whole, so its other arm
        # raises as evaluate would; so does check_stable's model test, with
        # no atom minimized and so no witness search after it.
        f = parse_formula(text)
        i = Interpretation(i)
        for ask in (evaluate, satisfies,
                    lambda f, i: check_stable(f, i, minimized=())):
            with pytest.raises(error):
                ask(f, i)


class TestFuzzyReduct:
    def test_negation_frozen(self):
        f = parse_formula("not_s q ->r p")
        i = parse_interpretation("p=0.3, q=0.7")
        r = fuzzy_reduct(f, i)
        assert print_formula(r) == "0.3 ->r p"

    def test_cap_applied_on_implication_below_one(self):
        f = parse_formula("q ->r p")
        i = parse_interpretation("p=0.3, q=0.7")
        r = fuzzy_reduct(f, i)
        assert print_formula(r) == "(q ->r p) &m 0.3"
        assert evaluate(r, i) == evaluate(f, i) == F(3, 10)

    def test_cap_of_one_dropped(self):
        f = parse_formula("q ->r p")
        i = parse_interpretation("p=0.7, q=0.3")
        assert print_formula(fuzzy_reduct(f, i)) == "q ->r p"

    def test_full_keeps_caps_on_conjunctions(self):
        f = parse_formula("p &l q")
        i = parse_interpretation("p=0.6, q=0.7")
        lean = fuzzy_reduct(f, i, simplified=True)
        full = fuzzy_reduct(f, i, simplified=False)
        assert print_formula(lean) == "p &l q"
        assert print_formula(full) == "p &l q &m 0.3"
        j = parse_interpretation("p=0.5, q=0.7")
        assert evaluate(lean, j) == evaluate(full, j) == F(2, 10)

    def test_wrapper_counterexample(self):
        f = parse_formula("0.6 ->r (1 ->r p)")
        i = parse_interpretation("p=0.6")
        assert evaluate(fuzzy_reduct(f, i), i) == F(1)
        assert evaluate(_reduct(f, i, True, "&l"), i) == F(1, 5)

    def test_reduct_example_shape(self):
        f = parse_formula("(not_s q ->r p) &m (not_s p ->r q)")
        i = parse_interpretation("p=0.4, q=0.6")
        r = fuzzy_reduct(f, i)
        assert print_formula(r) == "(0.4 ->r p) &m (0.6 ->r q)"

    def test_strongneg_refused(self):
        with pytest.raises(StrongNegationError):
            fuzzy_reduct(parse_formula("~p"), Interpretation({"p": F(1)}))

    @pytest.mark.parametrize("text", ["p &m q", "p ->r q", "not_s p |l q"])
    @pytest.mark.parametrize("simplified", [True, False])
    def test_every_atom_must_be_interpreted(self, text, simplified):
        with pytest.raises(SignatureError, match="atom 'q' is not interpreted"):
            fuzzy_reduct(parse_formula(text), parse_interpretation("p=1"), simplified)


def _chain(op: str, n: int, right: bool) -> Formula:
    """n links of op over atoms a0..an, nested to the right or the left."""
    out: Formula = Atom(f"a{n}")
    for k in reversed(range(n)):
        out = Bin(op, Atom(f"a{k}"), out) if right else Bin(op, out, Atom(f"a{k}"))
    return out


class TestReductsAreOnePass:
    """Counted, not timed: a one-pass reduct applies each connective once."""

    @pytest.fixture
    def applied(self, monkeypatch):
        calls = []
        real = semantics.op_apply

        def counting(op, *args):
            calls.append(op)
            return real(op, *args)

        monkeypatch.setattr(semantics, "op_apply", counting)
        return calls

    @staticmethod
    def connectives(f: Formula) -> int:
        return sum(isinstance(x, (Bin, Neg)) for x in walk(f))

    @pytest.mark.parametrize("right", [True, False])
    @pytest.mark.parametrize("simplified, wrapper",
                             [(True, "&m"), (False, "&m"), (True, "&l")])
    def test_fuzzy_reduct(self, applied, right, simplified, wrapper):
        f = Bin("&m", Neg("not_s", _chain("->l", 40, right)), _chain("->l", 40, right))
        i = Interpretation({f"a{k}": F(k % 5, 4) for k in range(41)})
        _reduct(f, i, simplified, wrapper)
        assert 0 < len(applied) <= self.connectives(f)

    def test_classical_reduct(self, applied):
        f = Bin("->s", _chain("|m", 40, False), Neg("not_s", _chain("&m", 40, True)))
        x = BoolInterpretation(tuple(f"a{k}" for k in range(41)),
                               frozenset(f"a{k}" for k in range(0, 41, 3)))
        classical_reduct(f, x)
        assert 0 < len(applied) <= self.connectives(f)


class TestClassicalSide:
    def test_bool_interpretation_validates(self):
        with pytest.raises(SignatureError):
            BoolInterpretation(("p",), frozenset({"q"}))

    def test_bool_satisfies(self):
        f = parse_formula("not_s q ->s p")
        x = BoolInterpretation(("p", "q"), frozenset({"p"}))
        assert bool_satisfies(f, x)

    def test_classical_reduct_on_negation(self):
        f = parse_formula("not_s q ->s p")
        x = BoolInterpretation(("p", "q"), frozenset({"p"}))
        r = classical_reduct(f, x)
        assert print_formula(r) == "1 ->s p"

    def test_classical_reduct_kills_false_branches(self):
        f = parse_formula("not_s p ->s q")
        x = BoolInterpretation(("p", "q"), frozenset({"p"}))
        r = classical_reduct(f, x)
        assert print_formula(r) == "0 ->s 0"

    def test_boolean_shape_enforced(self):
        f = parse_formula("p &m 0.5")
        x = BoolInterpretation(("p",), frozenset({"p"}))
        with pytest.raises(ValueError):
            classical_reduct(f, x)
