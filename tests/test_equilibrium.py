"""Two-world interval semantics: valuations, model checking, equilibrium.

Expected intervals in the pinned tests were computed by hand from the
evaluation clauses and are frozen here; the enumeration answers were
derived once by solving the lower-bound conditions on paper.
"""
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from fuzzysm import equilibrium
from fuzzysm.algebra import candidates
from fuzzysm.generators import ALL_OPERATORS, LATTICE_SAFE_OPERATORS, gen_formula
from fuzzysm.suites import _strongly_negated
from fuzzysm.syntax import Atom, StrongNeg, fold
from fuzzysm import (
    EquilibriumVerdict,
    Interval,
    Lattice,
    ResourceLimitError,
    Valuation,
    enumerate_equilibrium,
    equilibrium_verdict_to_json,
    find_h_violation,
    format_valuation,
    interpretation_of,
    is_equilibrium,
    is_n5_model,
    n5_evaluate,
    nneg,
    nneg_valuation,
    paired_valuation,
    parse_formula,
    parse_interpretation,
    parse_valuation,
    prec,
    print_formula,
    preceq,
    signature_of,
    valuation_from_json,
    valuation_of,
    valuation_to_json,
    walk,
)

D2 = Lattice(2)
D10 = Lattice(10)


def make(**kw) -> Valuation:
    """make(p=((hl, hu), (tl, tu)), ...) with values in tenths."""
    data = {}
    for atom, (h, t) in kw.items():
        data[("h", atom)] = Interval(F(h[0], 10), F(h[1], 10))
        data[("t", atom)] = Interval(F(t[0], 10), F(t[1], 10))
    return Valuation(data)


def shared(**kw) -> Valuation:
    """shared(p=(lo, hi), ...): the same interval in both worlds, tenths."""
    return make(**{a: (iv, iv) for a, iv in kw.items()})


class TestInterval:
    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="out of"):
            Interval(F(-1, 10), F(1, 2))
        with pytest.raises(ValueError, match="empty interval"):
            Interval(F(1, 2), F(1, 4))

    def test_contains(self):
        assert Interval(F(0), F(1)).contains(Interval(F(1, 4), F(1, 2)))
        assert not Interval(F(1, 4), F(1, 2)).contains(Interval(F(0), F(1, 2)))

    def test_str(self):
        assert str(Interval(F(1, 5), F(7, 10))) == "[0.2,0.7]"


class TestValuation:
    def test_unknown_world(self):
        with pytest.raises(ValueError, match="unknown world"):
            Valuation({("here", "p"): Interval(F(0), F(1))})

    def test_missing_world(self):
        with pytest.raises(ValueError, match="both worlds"):
            Valuation({("h", "p"): Interval(F(0), F(1))})

    def test_t_must_sit_inside_h(self):
        with pytest.raises(ValueError, match="inside the h-interval"):
            make(p=((3, 5), (2, 5)))

    def test_tuples_coerced_to_intervals(self):
        v = Valuation({("h", "p"): (F(0), F(1)), ("t", "p"): (F(1, 2), F(1))})
        assert v.at("h", "p") == Interval(F(0), F(1))

    def test_at_missing(self):
        v = shared(p=(0, 10))
        with pytest.raises(KeyError, match="no interval for atom 'q'"):
            v.at("h", "q")

    def test_replaced(self):
        v = shared(p=(5, 5))
        w = v.replaced("p", "h", Interval(F(0), F(1)))
        assert w.at("h", "p") == Interval(F(0), F(1))
        assert w.at("t", "p") == Interval(F(1, 2), F(1, 2))
        assert v.at("h", "p") == Interval(F(1, 2), F(1, 2))

    def test_replaced_revalidates(self):
        v = shared(p=(5, 5))
        with pytest.raises(ValueError, match="inside the h-interval"):
            v.replaced("p", "h", Interval(F(6, 10), F(1)))

    def test_equality_and_hash(self):
        assert shared(p=(2, 7)) == shared(p=(2, 7))
        assert hash(shared(p=(2, 7))) == hash(shared(p=(2, 7)))
        assert shared(p=(2, 7)) != shared(p=(2, 8))


class TestEvaluationClauses:
    """Each expected interval below was worked out by hand from the clause."""

    def test_atom_and_constant(self):
        v = make(p=((2, 9), (4, 8)))
        assert n5_evaluate(v, "h", parse_formula("p")) == Interval(F(2, 10), F(9, 10))
        assert n5_evaluate(v, "t", parse_formula("p")) == Interval(F(4, 10), F(8, 10))
        assert n5_evaluate(v, "h", parse_formula("0.3")) == Interval(F(3, 10), F(3, 10))

    def test_negation_reads_across_worlds(self):
        # h-side: [1 - t-lower of the body, 1 - h-lower]; t-side collapses
        # to the point 1 - t-lower.
        v = make(p=((2, 9), (4, 8)))
        f = parse_formula("not_s p")
        assert n5_evaluate(v, "h", f) == Interval(F(6, 10), F(8, 10))
        assert n5_evaluate(v, "t", f) == Interval(F(6, 10), F(6, 10))

    def test_strong_negation_flips_within_each_world(self):
        v = make(p=((2, 9), (4, 8)))
        f = parse_formula("~p")
        assert n5_evaluate(v, "h", f) == Interval(F(1, 10), F(8, 10))
        assert n5_evaluate(v, "t", f) == Interval(F(2, 10), F(6, 10))

    def test_conjunction_disjunction_pointwise(self):
        v = shared(p=(6, 10), q=(3, 10))
        assert n5_evaluate(v, "h", parse_formula("p &m q")) == Interval(F(3, 10), F(1))
        assert n5_evaluate(v, "h", parse_formula("p |l q")) == Interval(F(9, 10), F(1))

    def test_implication(self):
        v = shared(p=(6, 10), q=(3, 10))
        f = parse_formula("p ->r q")
        assert n5_evaluate(v, "h", f) == Interval(F(3, 10), F(1))
        assert n5_evaluate(v, "t", f) == Interval(F(3, 10), F(1))

    def test_world_argument_checked(self):
        with pytest.raises(ValueError, match="unknown world"):
            n5_evaluate(shared(p=(0, 10)), "here", parse_formula("p"))

    def test_is_model_means_h_lower_one(self):
        f = parse_formula("0.4 ->r p")
        assert is_n5_model(shared(p=(4, 10)), f)
        assert not is_n5_model(shared(p=(3, 10)), f)

    def test_atom_outside_the_valuation(self):
        with pytest.raises(KeyError, match="no interval for atom 'q' in world 'h'"):
            is_n5_model(shared(p=(4, 10)), parse_formula("p &m not_s q"))

    @pytest.mark.parametrize("text, h, t", [
        ("not_s p", (F(1, 2), F(1)), (F(0), F(1))),  # t reaches below h
        ("~p", (F(1), F(0)), (F(1), F(1))),  # h itself empty
        ("p &m 1", (F(1), F(0)), (F(1), F(1))),
        ("1 ->r p", (F(1), F(0)), (F(1), F(1))),
    ])
    def test_empty_interval_is_a_hard_error(self, text, h, t):
        # No Valuation breaks containment, so the scans' own form of one
        # (atom -> (h-pair, t-pair)) is built by hand.
        with pytest.raises(ValueError, match="empty interval"):
            equilibrium._pair({"p": (h, t)}, parse_formula(text))


def _nested_env(rng, sig, lattice):
    """A random two-world valuation in the scans' form, t inside h: per
    atom four sorted lattice points hl <= tl <= tu <= hu."""
    points = list(lattice.points())
    env = {}
    for a in sig:
        hl, tl, tu, hu = sorted(rng.choice(points) for _ in range(4))
        env[a] = ((hl, hu), (tl, tu))
    return env


def _postorder(f):
    """f's subformulas in the order of its flat program's nodes."""
    return fold(f, lambda x: [x], lambda x, *parts: [g for p in parts for g in p] + [x])


class TestLowerBoundPasses:
    """The model tests run f's program through the runners _t_run and
    _h_run, not _pair."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_agree_with_pair_on_every_subformula(self, d):
        lattice = Lattice(d)
        rng = random.Random(d)
        seen = {"not_s": 0, "~": 0}
        for k in range(60):
            sig = ["p", "q", "r"][:1 + k % 3]
            f = gen_formula(1000 * d + k, sig, max_depth=3,
                            operator_pool=ALL_OPERATORS, allow_strongneg=True,
                            lattice=lattice)
            nodes = _postorder(f)
            seen["not_s"] += any(getattr(x, "op", None) == "not_s" for x in nodes)
            seen["~"] += any(isinstance(x, StrongNeg) for x in nodes)
            for _ in range(5):
                env = _nested_env(rng, sig, lattice)
                levels = equilibrium._program(f, env)
                tv, hv = equilibrium._blank(levels), equilibrium._blank(levels)
                equilibrium._t_run(levels, [t for _, t in env.values()], None, tv)
                equilibrium._h_run(levels, [h for h, _ in env.values()], None, hv, tv)
                assert len(tv) == len(hv) == len(nodes)
                # The runs of f's program serve every subformula of f.
                for g, t_lower, h_lower in zip(nodes, tv, hv):
                    (hlo, _), (tlo, _) = equilibrium._pair(env, g)
                    assert (t_lower, h_lower) == (tlo, hlo), print_formula(g)
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("d", range(1, 7))
    def test_world_agreeing_t_pass_is_the_h_lower_bound(self, d):
        """Where h = t the h-lower bound of every node is its t-lower
        bound, the identity enumerate_equilibrium's model test rests on."""
        lattice = Lattice(d)
        points = list(lattice.points())
        rng = random.Random(-d)
        seen = {"not_s": 0, "~": 0, "both": 0}
        for k in range(60):
            sig = ["p", "q", "r"][:1 + k % 3]
            f = gen_formula(2000 * d + k, sig, max_depth=3,
                            operator_pool=ALL_OPERATORS, allow_strongneg=True,
                            lattice=lattice)
            nodes = _postorder(f)
            has = (any(getattr(x, "op", None) == "not_s" for x in nodes),
                   any(isinstance(x, StrongNeg) for x in nodes))
            seen["not_s"] += has[0]
            seen["~"] += has[1]
            seen["both"] += all(has)
            levels = equilibrium._program(f, sig)
            for _ in range(5):
                pairs = [tuple(sorted(rng.choice(points) for _ in range(2))) for _ in sig]
                env = {a: (pair, pair) for a, pair in zip(sig, pairs)}
                tv = equilibrium._blank(levels)
                equilibrium._t_run(levels, pairs, None, tv)
                for g, t_lower in zip(nodes, tv):
                    (hlo, _), _ = equilibrium._pair(env, g)
                    assert t_lower == hlo, print_formula(g)
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("name", ["negation_loop.fz", "complementary_pair.fz"])
    def test_model_tests_never_call_pair(self, corpus, monkeypatch, name):
        f = parse_formula((corpus / name).read_text())
        lattice = Lattice(4)

        def answers():
            models = enumerate_equilibrium(f, lattice)
            out = [models]
            sig = signature_of(f)
            corners = [valuation_of(dict.fromkeys(sig, F(x))) for x in (0, 1)]
            for v in models + corners:
                out += [is_n5_model(v, f), find_h_violation(v, f, lattice),
                        is_equilibrium(v, f, lattice)]
            return out

        want = answers()
        assert want[0]

        def refuse(*args):
            raise AssertionError("_pair called")

        monkeypatch.setattr(equilibrium, "_pair", refuse)
        assert answers() == want


def _scrambled(rng, names):
    """A signature for f's atom names out of formula order: reversed,
    sometimes with an atom f lacks, and one name given twice."""
    sig = list(reversed(names)) + ["z"] * (rng.random() < 0.3)
    if sig:
        sig.insert(rng.randrange(len(sig) + 1), rng.choice(sig))
    return sig


class TestLevelRuns:
    """The runners bring every node up to date from the level of the
    first slot a candidate changes: at every candidate of every scan, in
    scan order, each node's value is a full run's."""

    def test_levels_hold_the_last_slot_each_node_reads(self):
        rng = random.Random(3)
        for k in range(200):
            f = gen_formula(k, ["p", "q", "r"], max_depth=3, operator_pool=ALL_OPERATORS,
                            allow_strongneg=True, lattice=Lattice(4))
            names = list(signature_of(f))
            rng.shuffle(names)
            nodes = _postorder(f)
            levels = equilibrium._program(f, names)
            assert len(levels) == len(names) + 1
            assert sorted(k for level in levels for k, _ in level) == list(range(len(nodes)))
            for at, level in enumerate(levels):
                order = [k for k, _ in level]
                assert order == sorted(order)
                for k, _ in level:
                    slots = [names.index(a) for a in signature_of(nodes[k])]
                    assert at == 1 + max(slots, default=-1), print_formula(nodes[k])

    @staticmethod
    def _checked(monkeypatch, name, starts):
        """Replace the runner `name` with one that checks every node it
        leaves against a full run of the same call, and records the first
        level it reran."""
        run = getattr(equilibrium, name)

        def checked(levels, vals, prev, out, *tv):
            root = run(levels, vals, prev, out, *tv)
            fresh = equilibrium._blank(levels)
            assert run(levels, vals, None, fresh, *tv) == root
            assert out == fresh
            starts.append(equilibrium._start(vals, prev))
            return root

        monkeypatch.setattr(equilibrium, name, checked)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_world_agreeing_scan(self, monkeypatch, d):
        lattice = Lattice(d)
        rng = random.Random(40 + d)
        starts = []
        self._checked(monkeypatch, "_t_run", starts)
        for k in range(12):
            f = gen_formula(3000 * d + k, ["p", "q"], max_depth=3,
                            operator_pool=ALL_OPERATORS, allow_strongneg=k % 2 == 0,
                            lattice=lattice)
            sig = _scrambled(rng, signature_of(f))
            models = enumerate_equilibrium(f, lattice, signature=sig)
            # Another slot order finds the same models.
            in_order = signature_of(f, extra=sig)
            assert set(enumerate_equilibrium(f, lattice, signature=in_order)) == set(models)
        # Most candidates rerun the last slot's level alone.
        assert starts.count(0) == 2 * 12
        assert starts.count(2) > starts.count(1) >= 10

    def test_h_scans(self, monkeypatch):
        starts = []
        self._checked(monkeypatch, "_h_run", starts)
        seen = {"not_s": 0, "~": 0, "counter": 0}
        for d in range(1, 7):
            lattice = Lattice(d)
            rng = random.Random(50 + d)
            for k in range(12):
                f = gen_formula(4000 * d + k, ["p", "q"], max_depth=3,
                                operator_pool=ALL_OPERATORS, allow_strongneg=k % 2 == 0,
                                lattice=lattice)
                nodes = _postorder(f)
                seen["not_s"] += any(getattr(x, "op", None) == "not_s" for x in nodes)
                seen["~"] += any(isinstance(x, StrongNeg) for x in nodes)
                sig = _scrambled(rng, signature_of(f))
                enumerate_equilibrium(f, lattice, signature=sig)
                for _ in range(3):
                    # The valuation's atoms, and so the scan's slots, out
                    # of formula order.
                    env = _nested_env(rng, list(dict.fromkeys(sig)), lattice)
                    v = Valuation({(w, a): pair for a, (h, t) in env.items()
                                   for w, pair in (("h", h), ("t", t))})
                    seen["counter"] += find_h_violation(v, f, lattice) is not None
                    is_equilibrium(v, f, lattice)
        assert min(seen.values()) >= 10, seen
        assert starts.count(2) > starts.count(1) >= 100

    def test_h_pools_take_the_lattice_points(self, monkeypatch):
        """enumerate_equilibrium hands every model's h-scan the pools of
        its h-pairs, with every endpoint one of the lattice's own
        points: no model builds a Fraction."""
        scans = []  # per h-scan, its h-pairs and their pools
        real = equilibrium.candidates

        def recording(pools, cap, skip=None):
            if skip is not None:
                scans.append((skip, pools))
            return real(pools, cap, skip)

        monkeypatch.setattr(equilibrium, "candidates", recording)
        lattice = Lattice(4)
        ids = set(map(id, lattice.points()))
        f = parse_formula("(not_s p ->r q) &m (not_s q ->r p)")
        enumerate_equilibrium(f, lattice)
        assert len(scans) > 10
        for hs, pools in scans:
            assert pools == equilibrium._h_pools(hs, lattice, 10 ** 6)
            assert all(id(x) in ids for pool in pools for pair in pool for x in pair)

    def test_many_models_hold_one_models_pools(self):
        # Every (k/1000, 1) is a model of 'p ->r p', with an h-pool of
        # k + 1 intervals, so keeping every model's pool for the whole
        # call would take about 60 MiB.  The call builds the lattice's
        # 1001 points and its own pool of 1001 intervals, and holds one
        # model's pool at a time.
        tracemalloc.start()
        try:
            models = enumerate_equilibrium(parse_formula("p ->r p"), Lattice(1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert models == [shared(p=(0, 10))]
        assert peak < 2 ** 20


class TestOrder:
    def test_preceq_widens_h_keeps_t(self):
        v = make(p=((2, 7), (2, 7)))
        wider = make(p=((0, 9), (2, 7)))
        assert preceq(wider, v)
        assert prec(wider, v)
        assert not prec(v, v)
        assert preceq(v, v)

    def test_changed_t_breaks_preceq(self):
        v = make(p=((2, 7), (2, 7)))
        other = make(p=((2, 7), (3, 7)))
        assert not preceq(other, v)

    def test_signature_mismatch(self):
        with pytest.raises(ValueError, match="different signatures"):
            preceq(shared(p=(0, 10)), shared(q=(0, 10)))

    def test_same_atoms_in_another_order(self):
        v = parse_valuation("h:p=[0,1]; t:p=[0,1]; h:q=[0,1]; t:q=[0,1]")
        w = parse_valuation("h:q=[0,1]; t:q=[0,1]; h:p=[0,1]; t:p=[0,1]")
        assert v == w
        assert preceq(v, w) and preceq(w, v)
        assert not prec(v, w) and not prec(w, v)
        narrow = parse_valuation("h:p=[0,1]; t:p=[0.5,1]; h:q=[0.5,1]; t:q=[0.5,1]")
        wider = parse_valuation("h:q=[0,1]; t:q=[0.5,1]; h:p=[0,1]; t:p=[0.5,1]")
        assert prec(wider, narrow)
        assert not preceq(narrow, wider)


class TestIsEquilibrium:
    F1 = parse_formula("not_s q ->r p")

    def test_not_a_model(self):
        verdict = is_equilibrium(shared(q=(0, 10), p=(0, 0)), self.F1, D2)
        assert verdict.status == "not_a_model"
        assert verdict.counter is None

    def test_not_h_minimal_with_counter(self):
        v = shared(q=(10, 10), p=(10, 10))
        verdict = is_equilibrium(v, self.F1, D2)
        assert verdict.status == "not_h_minimal"
        # the counter widens h and is still a model, t untouched
        assert verdict.counter is not None
        assert prec(verdict.counter, v)
        assert is_n5_model(verdict.counter, self.F1)

    def test_worlds_differ(self):
        v = make(q=((0, 10), (10, 10)), p=((0, 10), (10, 10)))
        verdict = is_equilibrium(v, self.F1, D2)
        assert verdict.status == "worlds_differ"
        assert "atom" in verdict.note

    def test_equilibrium(self):
        v = make(q=((0, 10), (0, 10)), p=((10, 10), (10, 10)))
        verdict = is_equilibrium(v, self.F1, D2)
        assert verdict.status == "equilibrium"
        assert verdict.denominator == 2

    def test_off_lattice_endpoint_rejected(self):
        v = shared(p=(3, 10))
        with pytest.raises(ValueError, match="outside the 1/2 lattice"):
            is_equilibrium(v, parse_formula("p ->r p"), D2)

    def test_find_h_violation_cap(self):
        v = shared(q=(10, 10), p=(10, 10))
        with pytest.raises(ResourceLimitError, match="exceed the cap"):
            find_h_violation(v, self.F1, D10, cap=3)


class TestEnumerate:
    def test_negation_rule_unique(self):
        models = enumerate_equilibrium(parse_formula("not_s q ->r p"), D2)
        assert len(models) == 1
        assert format_valuation(models[0]) == (
            "h:q=[0,1]; h:p=[1,1]; t:q=[0,1]; t:p=[1,1]")
        assert interpretation_of(models[0]) == {"q": F(0), "p": F(1)}

    def test_strong_negation_pair_unique(self):
        f = parse_formula("(0.2 ->r p) &m (0.3 ->r ~p)")
        models = enumerate_equilibrium(f, D10)
        assert models == [shared(p=(2, 7))]

    def test_explicit_signature(self):
        models = enumerate_equilibrium(
            parse_formula("p ->r p"), D2, signature=("p", "q"))
        assert all(m.atoms() == ("p", "q") for m in models)
        # q is unconstrained, so only the full interval survives widening
        assert all(m.at("h", "q") == Interval(F(0), F(1)) for m in models)

    def test_signature_duplicates_scanned_once(self):
        f = parse_formula("p ->r p")
        models = enumerate_equilibrium(f, D2, signature=("q", "p", "q", "p"))
        assert models == enumerate_equilibrium(f, D2, signature=("q", "p"))
        assert len(models) == 1 and models[0].atoms() == ("q", "p")

    def test_signature_missing_an_atom_of_f(self):
        f = parse_formula("p &m not_s ~q")
        with pytest.raises(KeyError,
                           match="atom 'q' of the formula is missing from the signature"):
            enumerate_equilibrium(f, D2, signature=("p", "r"))

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_equilibrium(parse_formula("p &m q"), D10, cap=10)


def _refusal_peak(call, message):
    """The traced allocation peak of a call that the cap refuses."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestCapBeforePools:
    """The interval pools grow with the square of the lattice, so each
    scan counts them in integers and refuses past the cap before it
    builds a point list or a pair."""

    CAP_TEXT = "candidates exceed the cap of 100; raise the cap to scan them all"

    def test_enumerate(self):
        f = parse_formula("p |m ~p")
        peak = _refusal_peak(
            lambda: enumerate_equilibrium(f, Lattice(1000), cap=100),
            f"501501 {self.CAP_TEXT}")  # the 1001 * 1002 / 2 pairs lo <= hi
        assert peak < 2 ** 20

    def test_h_violation(self):
        f = parse_formula("p ->r p")
        v = parse_valuation("h:p=[0.5,0.5]; t:p=[0.5,0.5]")
        peak = _refusal_peak(
            lambda: is_equilibrium(v, f, Lattice(1000), cap=100),
            f"251001 {self.CAP_TEXT}")  # 501 lower bounds times 501 upper
        assert peak < 2 ** 20

    def test_h_violation_builds_only_its_runs(self):
        # At p = 0 the h-interval is [0, 1]: one lower bound and one upper
        # bound, so one candidate, however fine the lattice.  Building
        # every lattice point at D = 10^5 would take about 12 MiB.
        v = valuation_of(parse_interpretation("p=0"))
        tracemalloc.start()
        try:
            verdict = is_equilibrium(v, parse_formula("p |m not_s p"), Lattice(10 ** 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.status == "equilibrium"
        assert peak < 2 ** 20

    @pytest.mark.parametrize("lo, hi, d", [
        (F(0), F(1), 4), (F(1, 2), F(1, 2), 4), (F(1), F(1), 3),
        (F(1, 3), F(2, 3), 6), (F(0), F(0), 5)])
    def test_counted_pools_are_the_filtered_ones(self, lo, hi, d):
        # A cap one short of the filtered pool's size refuses it.
        points = list(Lattice(d).points())
        pool = [(a, b) for a in points if a <= lo for b in points if b >= hi]
        v = Valuation({(w, "p"): Interval(lo, hi) for w in ("h", "t")})
        with pytest.raises(ResourceLimitError, match=f"^{len(pool)} candidates"):
            find_h_violation(v, parse_formula("p |m ~p"), Lattice(d),
                             cap=len(pool) - 1)


class TestBridges:
    def test_valuation_of_lifts_lower_bounds(self):
        v = valuation_of(parse_interpretation("p=0.3, q=1"))
        assert v.at("h", "p") == Interval(F(3, 10), F(1))
        assert v.at("t", "p") == v.at("h", "p")
        assert v.at("h", "q") == Interval(F(1), F(1))

    def test_paired_valuation(self):
        j = parse_interpretation("p=0.2")
        i = parse_interpretation("p=0.5")
        v = paired_valuation(j, i)
        assert v.at("h", "p") == Interval(F(1, 5), F(1))
        assert v.at("t", "p") == Interval(F(1, 2), F(1))

    def test_paired_needs_h_below_t(self):
        j = parse_interpretation("p=0.6")
        i = parse_interpretation("p=0.5")
        with pytest.raises(ValueError, match="inside the h-interval"):
            paired_valuation(j, i)

    def test_paired_signature_mismatch(self):
        with pytest.raises(ValueError, match="different atoms"):
            paired_valuation(parse_interpretation("p=0"),
                             parse_interpretation("q=0"))

    def test_interpretation_of(self):
        assert interpretation_of(make(p=((2, 7), (2, 7)))) == {"p": F(1, 5)}

    def test_nneg_valuation_mirrors_upper_bounds(self):
        v = shared(p=(2, 7))
        w = nneg_valuation(v, {"p": "np"})
        assert w.at("h", "p") == Interval(F(1, 5), F(1))
        assert w.at("h", "np") == Interval(F(3, 10), F(1))
        assert w.at("t", "np") == Interval(F(3, 10), F(1))

    def test_nneg_bridge_preserves_equilibrium(self):
        f = parse_formula("(0.2 ->r p) &m (0.3 ->r ~p)")
        r = nneg(f)
        v = shared(p=(2, 7))
        w = nneg_valuation(v, r.complements)
        assert is_equilibrium(w, r.formula, D10).status == "equilibrium"


class TestTextAndJson:
    def test_parse_and_format_round_trip(self):
        text = "h:p=[0.2,0.7]; t:p=[0.2,0.7]"
        v = parse_valuation(text)
        assert v == shared(p=(2, 7))
        assert format_valuation(v) == text

    def test_parse_rejects_bad_chunk(self):
        with pytest.raises(ValueError, match="expected 'world:atom"):
            parse_valuation("h:p=0.2")

    def test_parse_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate interval"):
            parse_valuation("h:p=[0,1]; h:p=[0,1]; t:p=[0,1]")

    @pytest.mark.parametrize("text, key", [
        ('{"h": {"p": [1, 1]}, "t": {"p": [1, 1]}, "h": {"p": [0, 1]}}', "h"),
        ('{"h": {"p": [1, 1], "p": [0, 1]}, "t": {"p": [1, 1]}}', "p"),
    ])
    def test_parse_json_rejects_duplicate(self, text, key):
        with pytest.raises(ValueError, match=f"'{key}' appears twice"):
            parse_valuation(text)

    def test_json_round_trip(self):
        v = make(p=((2, 9), (4, 8)), q=((0, 10), (0, 10)))
        data = valuation_to_json(v)
        assert data["h"]["p"] == ["1/5", "9/10"]
        assert valuation_from_json(data) == v

    def test_json_accepts_numbers(self):
        v = valuation_from_json({"h": {"p": [0, 1]}, "t": {"p": [1, 1]}})
        assert v.at("t", "p") == Interval(F(1), F(1))

    def test_verdict_json(self):
        f = parse_formula("not_s q ->r p")
        v = Valuation({("h", a): Interval(F(1), F(1)) for a in ("q", "p")}
                      | {("t", a): Interval(F(1), F(1)) for a in ("q", "p")})
        verdict = is_equilibrium(v, f, D2)
        data = equilibrium_verdict_to_json(verdict)
        assert data["status"] == "not_h_minimal"
        assert data["denominator"] == 2
        assert valuation_from_json(data["counter"]) == verdict.counter

    def test_verdict_json_without_counter(self):
        verdict = EquilibriumVerdict("equilibrium", 10)
        data = equilibrium_verdict_to_json(verdict)
        assert data == {"status": "equilibrium", "denominator": 10,
                        "counter": None, "note": ""}


# Recorded from the Interval-object scan that the plain-pair scan replaced:
# (formula, D, models) and (formula, D, valuation, first counter or None).
PINNED_MODELS = [
    ("(not_s p ->r q) &m (not_s q ->r p)", 2, [
        "h:p=[0,1]; h:q=[1,1]; t:p=[0,1]; t:q=[1,1]",
        "h:p=[0.5,1]; h:q=[0.5,1]; t:p=[0.5,1]; t:q=[0.5,1]",
        "h:p=[1,1]; h:q=[0,1]; t:p=[1,1]; t:q=[0,1]",
    ]),
    ("(not_s p ->r q) &m (not_s q ->r p)", 4, [
        "h:p=[0,1]; h:q=[1,1]; t:p=[0,1]; t:q=[1,1]",
        "h:p=[0.25,1]; h:q=[0.75,1]; t:p=[0.25,1]; t:q=[0.75,1]",
        "h:p=[0.5,1]; h:q=[0.5,1]; t:p=[0.5,1]; t:q=[0.5,1]",
        "h:p=[0.75,1]; h:q=[0.25,1]; t:p=[0.75,1]; t:q=[0.25,1]",
        "h:p=[1,1]; h:q=[0,1]; t:p=[1,1]; t:q=[0,1]",
    ]),
    ("(p &p q) |p not_s p ->r q", 2, [
        "h:p=[0,1]; h:q=[1,1]; t:p=[0,1]; t:q=[1,1]",
    ]),
    ("(p &p q) |p not_s p ->r q", 4, [
        "h:p=[0,1]; h:q=[1,1]; t:p=[0,1]; t:q=[1,1]",
    ]),
    ("(0.5 ->r p) &m (0.5 ->r ~p)", 2, [
        "h:p=[0.5,0.5]; t:p=[0.5,0.5]",
    ]),
    ("(0.5 ->r p) &m (0.5 ->r ~p)", 4, [
        "h:p=[0.5,0.5]; t:p=[0.5,0.5]",
    ]),
    ("(not_s ~q ->r p) &m (p ->s ~q)", 2, []),
    ("(not_s ~q ->r p) &m (p ->s ~q)", 4, []),
    ("~p |m (q ->l ~q)", 2, [
        "h:p=[0,1]; h:q=[0,1]; t:p=[0,1]; t:q=[0,1]",
    ]),
    ("~p |m (q ->l ~q)", 4, [
        "h:p=[0,1]; h:q=[0,1]; t:p=[0,1]; t:q=[0,1]",
    ]),
]
PINNED_COUNTERS = [
    ("(not_s p ->r q) &m (not_s q ->r p)", 2,
     "h:p=[0,0]; h:q=[1,1]; t:p=[0,0]; t:q=[1,1]",
     "h:p=[0,0.5]; h:q=[1,1]; t:p=[0,0]; t:q=[1,1]"),
    ("(not_s p ->r q) &m (not_s q ->r p)", 2,
     "h:p=[0.5,1]; h:q=[0,1]; t:p=[1,1]; t:q=[0.5,0.5]",
     None),
    ("(not_s p ->r q) &m (not_s q ->r p)", 4,
     "h:p=[0.75,1]; h:q=[0.25,1]; t:p=[0.75,1]; t:q=[0.75,1]",
     "h:p=[0.25,1]; h:q=[0.25,1]; t:p=[0.75,1]; t:q=[0.75,1]"),
    ("(not_s p ->r q) &m (not_s q ->r p)", 4,
     "h:p=[1,1]; h:q=[0,1]; t:p=[1,1]; t:q=[0,0.25]",
     None),
    ("(p &p q) |p not_s p ->r q", 2,
     "h:p=[0.5,0.5]; h:q=[1,1]; t:p=[0.5,0.5]; t:q=[1,1]",
     "h:p=[0,0.5]; h:q=[0.5,1]; t:p=[0.5,0.5]; t:q=[1,1]"),
    ("(p &p q) |p not_s p ->r q", 2,
     "h:p=[0,1]; h:q=[1,1]; t:p=[0,0.5]; t:q=[1,1]",
     None),
    ("(p &p q) |p not_s p ->r q", 4,
     "h:p=[0.75,1]; h:q=[1,1]; t:p=[0.75,1]; t:q=[1,1]",
     "h:p=[0,1]; h:q=[0.25,1]; t:p=[0.75,1]; t:q=[1,1]"),
    ("(p &p q) |p not_s p ->r q", 4,
     "h:p=[0,1]; h:q=[1,1]; t:p=[0,0.75]; t:q=[1,1]",
     None),
    ("(0.5 ->r p) &m (0.5 ->r ~p)", 2,
     "h:p=[0.5,0.5]; h:q=[0.5,1]; t:p=[0.5,0.5]; t:q=[0.5,0.5]",
     "h:p=[0.5,0.5]; h:q=[0,1]; t:p=[0.5,0.5]; t:q=[0.5,0.5]"),
    ("(0.5 ->r p) &m (0.5 ->r ~p)", 2,
     "h:p=[0.5,0.5]; h:q=[0,1]; t:p=[0.5,0.5]; t:q=[0.5,0.5]",
     None),
    ("(0.5 ->r p) &m (0.5 ->r ~p)", 4,
     "h:p=[0.5,0.5]; h:q=[1,1]; t:p=[0.5,0.5]; t:q=[1,1]",
     "h:p=[0.5,0.5]; h:q=[0,1]; t:p=[0.5,0.5]; t:q=[1,1]"),
    ("(0.5 ->r p) &m (0.5 ->r ~p)", 4,
     "h:p=[0.5,0.5]; h:q=[0,1]; t:p=[0.5,0.5]; t:q=[0.25,1]",
     None),
    ("(not_s ~q ->r p) &m (p ->s ~q)", 2,
     "h:p=[0.5,0.5]; h:q=[0,0]; t:p=[0.5,0.5]; t:q=[0,0]",
     "h:p=[0,0.5]; h:q=[0,0]; t:p=[0.5,0.5]; t:q=[0,0]"),
    ("(not_s ~q ->r p) &m (p ->s ~q)", 2,
     "h:p=[0,1]; h:q=[0,1]; t:p=[0.5,0.5]; t:q=[0,0]",
     None),
    ("(not_s ~q ->r p) &m (p ->s ~q)", 4,
     "h:p=[0.75,0.75]; h:q=[0,0]; t:p=[0.75,0.75]; t:q=[0,0]",
     "h:p=[0,0.75]; h:q=[0,0]; t:p=[0.75,0.75]; t:q=[0,0]"),
    ("~p |m (q ->l ~q)", 2,
     "h:p=[0,0]; h:q=[1,1]; t:p=[0,0]; t:q=[1,1]",
     "h:p=[0,0]; h:q=[0,1]; t:p=[0,0]; t:q=[1,1]"),
    ("~p |m (q ->l ~q)", 2,
     "h:p=[0,1]; h:q=[0,1]; t:p=[0,0]; t:q=[0.5,0.5]",
     None),
    ("~p |m (q ->l ~q)", 4,
     "h:p=[0.25,0.5]; h:q=[0,0.75]; t:p=[0.5,0.5]; t:q=[0.5,0.5]",
     "h:p=[0,0.5]; h:q=[0,0.75]; t:p=[0.5,0.5]; t:q=[0.5,0.5]"),
    ("~p |m (q ->l ~q)", 4,
     "h:p=[0,0]; h:q=[0,1]; t:p=[0,0]; t:q=[1,1]",
     None),
]


class TestPinnedScans:
    @pytest.mark.parametrize("text, d, want", PINNED_MODELS)
    def test_enumerated_models(self, text, d, want):
        models = enumerate_equilibrium(parse_formula(text), Lattice(d))
        assert [format_valuation(m) for m in models] == want

    @pytest.mark.parametrize("text, d, valuation, want", PINNED_COUNTERS)
    def test_first_counter(self, text, d, valuation, want):
        counter = find_h_violation(parse_valuation(valuation), parse_formula(text),
                                   Lattice(d))
        assert (None if counter is None else format_valuation(counter)) == want


def _full_route(f, lattice, sig):
    """Every world-agreeing lattice valuation over all intervals, in scan
    order, that is_equilibrium accepts."""
    points = list(lattice.points())
    intervals = [Interval(lo, hi) for lo in points for hi in points if lo <= hi]
    return [v for combo in candidates([intervals] * len(sig), 10 ** 7)
            for v in [Valuation({(w, a): iv for a, iv in zip(sig, combo)
                                 for w in ("h", "t")})]
            if is_equilibrium(v, f, lattice).status == "equilibrium"]


class TestPrunedEnumeration:
    """enumerate_equilibrium scans only the intervals whose unread
    endpoints are widened; its models, in order, are those of the full
    scan through is_equilibrium."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_agrees_with_the_full_scan(self, d):
        lattice = Lattice(d)
        shapes = {"plain": 0, "strongneg": 0, "only_strongneg": 0, "extra": 0}
        for k in range(80):
            sig = ["p", "q"][:1 + k % 2]
            strongneg = k % 4 < 2
            f = gen_formula(100 * d + k, sig, max_depth=3,
                            operator_pool=ALL_OPERATORS if k % 3 == 0
                            else LATTICE_SAFE_OPERATORS,
                            allow_strongneg=strongneg, lattice=lattice)
            if strongneg and k % 8 < 5:
                f = _strongly_negated(f, sig[-1])
            if k % 6 == 0:  # one atom in f, one in the signature only
                sig = sig + ["r"]
            nodes = set(walk(f))
            negated = any(isinstance(x, StrongNeg) for x in nodes)
            shapes["strongneg" if negated else "plain"] += 1
            shapes["only_strongneg"] += any(
                StrongNeg(a) in nodes and Atom(a) not in nodes for a in sig)
            shapes["extra"] += sig[-1] == "r"
            assert enumerate_equilibrium(f, lattice, signature=sig) == \
                _full_route(f, lattice, sig), (print_formula(f), sig)
        assert min(shapes.values()) >= 10, shapes
