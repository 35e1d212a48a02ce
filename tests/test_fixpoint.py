"""The least-fixpoint proof that find_witness tries before any scan or
draw: where it applies (a Horn-shaped reduct at the top value), where it
declines, and that the errors of the search still come first."""
from fractions import Fraction as F

import pytest

import fuzzysm.stable
from fuzzysm import (
    Exhaustive,
    Interpretation,
    Lattice,
    ResourceLimitError,
    Sampled,
    find_witness,
    parse_fasp_program,
    parse_formula,
    parse_interpretation,
    program_to_formula,
    signature_of,
)
from fuzzysm.compiled import compile_formula, least_model
from witness_reference import reference_witness

D2 = Lattice(2)
D4 = Lattice(4)
D10 = Lattice(10)


def least(f, i, lattice, minimized=None):
    """least_model over the pools find_witness builds (the sampled ones,
    which hold I's value also when it is off the lattice), or None when
    it declines."""
    sig = signature_of(f, extra=tuple(i))
    prog = compile_formula(f, sig, lattice, i.values())
    at_i = prog.evaluate([prog.domain(i[a]) for a in sig])
    moving = tuple(k for k, a in enumerate(sig) if minimized is None or a in minimized)
    pools = [prog.below(at_i[k]) if i[sig[k]] in lattice
             else prog.below(at_i[k]) + (at_i[k],) for k in moving]
    top = prog.points[-1]
    found = least_model(prog, prog.reduct_checks(moving, top), moving, pools, at_i)
    if found is None:
        return None
    return Interpretation({**i, **{sig[k]: prog.value(v) for k, v in zip(moving, found)}})


def no_hunt(monkeypatch):
    """Make any scan or draw of find_witness fail the test."""
    def hunt(*args):
        raise AssertionError("find_witness scanned after the proof")

    monkeypatch.setattr(fuzzysm.stable, "witness_in", hunt)
    monkeypatch.setattr(fuzzysm.stable, "_draws", hunt)


def chain(n, reverse=False):
    """p0 and p(k+1) <- pk, not qk, with its answer set: every p at 1,
    every q at 0.  Reversed, each rule comes before the one deriving its
    body, so the proof has to revisit rules as their bodies rise."""
    text = "p0.\n" + "".join(f"p{k + 1} <- p{k}, not q{k}.\n" for k in range(n))
    rules = parse_fasp_program(text, "&m")
    f = program_to_formula(rules[::-1] if reverse else rules, "&m")
    model = {f"p{k}": 1 for k in range(n + 1)}
    model.update({f"q{k}": 0 for k in range(n)})
    return f, Interpretation(model)


class TestProof:
    @pytest.mark.parametrize("stem", ["trust_luk", "trust_product"])
    def test_trust_networks(self, corpus, stem, monkeypatch):
        f = parse_formula((corpus / f"{stem}.fz").read_text())
        i = parse_interpretation((corpus / f"{stem}_model.json").read_text())
        assert least(f, i, D10) == i
        no_hunt(monkeypatch)
        assert find_witness(f, i, signature_of(f), lattice=D10,
                            strategy=Sampled(100_000, 0)) is None

    @pytest.mark.parametrize("reverse", [False, True])
    def test_chain(self, reverse, monkeypatch):
        f, i = chain(300, reverse)
        assert least(f, i, D10) == i
        no_hunt(monkeypatch)
        assert find_witness(f, i, signature_of(f), lattice=D10,
                            strategy=Sampled(100, 0)) is None

    def test_exhaustive_proof(self, monkeypatch):
        f, i = chain(3, reverse=True)
        no_hunt(monkeypatch)
        assert find_witness(f, i, signature_of(f), lattice=D10) is None

    def test_least_model_below_a_model(self):
        # c supports only itself, so it falls to 0; a and b are derived.
        f = parse_formula("(1 ->r a) &m (a &l 1 ->r b) &m (c ->r c)")
        i = parse_interpretation("a=1, b=1, c=1")
        assert least(f, i, D4) == parse_interpretation("a=1, b=1, c=0")

    def test_raise_to_the_least_pool_value_at_or_above_the_body(self):
        # The body 0.3 lies between the D = 4 points 1/4 and 1/2.
        f = parse_formula("0.3 ->r p")
        i = parse_interpretation("p=0.75")
        assert least(f, i, D4)["p"] == F(1, 2)

    def test_a_head_that_does_not_vary_is_left_out(self):
        # q is not minimized, so `p ->r q` holds at every J below I.
        f = parse_formula("(1 ->r p) &m (p ->r q)")
        i = parse_interpretation("p=1, q=1")
        assert least(f, i, D4, minimized=("p",)) == i

    @pytest.mark.parametrize("strategy", [Exhaustive(), Sampled(50, 3)])
    def test_an_unstable_horn_input_keeps_its_witness(self, strategy):
        # The least model is below I, so the search runs as before and
        # returns the first witness in scan order (or in draw order).
        f = parse_formula("(c ->r c) &m (1 ->r a) &m (a ->r b)")
        i = parse_interpretation("a=1, b=1, c=1")
        want = reference_witness(f, i, ("a", "b", "c"), 1, D2, strategy)
        assert want == parse_interpretation("a=1, b=1, c=0")
        got = find_witness(f, i, ("a", "b", "c"), lattice=D2, strategy=strategy)
        assert got == want


class TestDeclines:
    CASES = [
        # (formula, interpretation, threshold), at D = 4
        ("q ->s p", "p=1, q=1", 1),  # not a residual implication
        ("q ->r p |m r", "p=1, q=1, r=0", 1),  # disjunctive head
        ("(q ->r r) ->r p", "p=1, q=1, r=1", 1),  # implication in a body
        ("p |m q", "p=1, q=1", 1),  # a bare top-level disjunction
        ("(1 ->r p) &m (p ->r q)", "p=1, q=1", F(3, 4)),  # Horn, below the top
    ]

    @pytest.mark.parametrize("text, interp, _", CASES[:4])
    def test_not_horn_shaped(self, text, interp, _):
        assert least(parse_formula(text), parse_interpretation(interp), D4) is None

    @pytest.mark.parametrize("text, interp, y", CASES)
    @pytest.mark.parametrize("strategy", [Exhaustive(), Sampled(200, 0)])
    def test_find_witness_unchanged(self, text, interp, y, strategy):
        f, i = parse_formula(text), parse_interpretation(interp)
        want = reference_witness(f, i, tuple(i), y, D4, strategy)
        assert want is not None
        assert find_witness(f, i, tuple(i), y, D4, strategy) == want

    def test_threshold_below_one_runs_no_proof(self, monkeypatch):
        f = parse_formula("(1 ->r p) &m (p ->r q)")
        i = parse_interpretation("p=1, q=1")

        def proof(*args):
            raise AssertionError("proof tried below the top value")

        monkeypatch.setattr(fuzzysm.stable, "least_model", proof)
        assert find_witness(f, i, ("p", "q"), F(3, 4), D4) == reference_witness(
            f, i, ("p", "q"), F(3, 4), D4)


class TestErrorsComeFirst:
    def test_sampled_past_the_cap(self, monkeypatch):
        f, i = chain(300)
        no_hunt(monkeypatch)
        with pytest.raises(ResourceLimitError, match="^11 candidates exceed the cap of 10"):
            find_witness(f, i, signature_of(f), lattice=D10,
                         strategy=Sampled(11, 0), cap=10)

    def test_exhaustive_past_the_cap(self, monkeypatch):
        f, i = chain(300)
        no_hunt(monkeypatch)
        with pytest.raises(ResourceLimitError, match="exceed the cap of 100"):
            find_witness(f, i, signature_of(f), lattice=D10, cap=100)

    def test_off_the_lattice_under_exhaustive(self, corpus, monkeypatch):
        f = parse_formula((corpus / "trust_product.fz").read_text())
        i = parse_interpretation((corpus / "trust_product_model.json").read_text())
        assert least(f, i, D10) == i  # the proof would say stable
        no_hunt(monkeypatch)
        with pytest.raises(ValueError, match="outside the 1/10 lattice"):
            find_witness(f, i, signature_of(f), lattice=D10)
