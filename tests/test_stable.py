import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import fuzzysm.stable

from fuzzysm import (
    BoolInterpretation,
    Const,
    Exhaustive,
    Interpretation,
    Lattice,
    ResourceLimitError,
    Sampled,
    SignatureError,
    StrongNegationError,
    TruthError,
    boolean_stable_check,
    check_stable,
    check_stable_via_star,
    enumerate_stable,
    evaluate,
    fasp_answer_set_check,
    fasp_answer_sets,
    find_witness,
    fuzzy_reduct,
    parse_fasp_program,
    parse_formula,
    parse_interpretation,
    parse_truth,
    print_formula,
    program_to_formula,
    shadow_names,
    signature_of,
    star_transform,
    strategy_from_json,
    strategy_to_json,
    verdict_from_json,
    verdict_to_json,
    walk,
    y_to_one,
)
from fuzzysm.compiled import compile_formula

F = Fraction
D10 = Lattice(10)
D2 = Lattice(2)


class TestFindWitness:
    def test_witness_scan_order(self):
        # Minimized atoms scan in signature order with values ascending,
        # so the first reported witness lowers q all the way first.
        f = parse_formula("not_s q ->r p")
        i = parse_interpretation("p=0.5, q=0.5")
        w = find_witness(f, i, ("p", "q"), lattice=D2)
        assert w == parse_interpretation("p=0.5, q=0")

    def test_no_witness_for_stable(self):
        f = parse_formula("not_s q ->r p")
        i = parse_interpretation("p=1, q=0")
        assert find_witness(f, i, ("p", "q"), lattice=D10) is None

    def test_empty_minimization_has_no_witness(self):
        f = parse_formula("p ->r p")
        i = parse_interpretation("p=0.5")
        assert find_witness(f, i, (), lattice=D10) is None

    def test_subthreshold_skips_scan(self):
        # The formula's value bounds every reduct value, so the search
        # can answer without scanning even when the space is over cap.
        sig = [f"a{k}" for k in range(40)]
        f = parse_formula(" &m ".join(sig) + " &m not_s a0")
        i = Interpretation({a: F(1, 2) for a in sig})
        assert find_witness(f, i, sig, threshold=F(1), lattice=D10, cap=10) is None

    def test_cap_enforced(self):
        f = parse_formula("p &m q &m r")
        i = parse_interpretation("p=1, q=1, r=1")
        with pytest.raises(ResourceLimitError):
            find_witness(f, i, ("p", "q", "r"), lattice=D10, cap=100)

    def test_sample_count_over_cap(self, monkeypatch):
        f = parse_formula("p")
        i = parse_interpretation("p=1")

        def no_compile(*args):
            raise AssertionError("compiled before the cap check")

        monkeypatch.setattr(fuzzysm.stable, "compile_formula", no_compile)
        with pytest.raises(ResourceLimitError, match=(
                "^11 candidates exceed the cap of 10; "
                "raise the cap to scan them all$")):
            find_witness(f, i, ("p",), lattice=D10,
                         strategy=Sampled(samples=11, seed=0), cap=10)

    def test_off_lattice_exhaustive_rejected(self):
        # The interpretation must reach the threshold first, or the
        # value bound answers before any pools are built.
        f = parse_formula("p")
        i = parse_interpretation("p=1/3")
        with pytest.raises(ValueError, match="outside the 1/10 lattice"):
            find_witness(f, i, ("p",), threshold=F(1, 3), lattice=D10)

    def test_off_lattice_sampled_allowed(self):
        f = parse_formula("0.6 ->r p")
        i = parse_interpretation("p=14/25")
        w = find_witness(f, i, ("p",), threshold=F(14, 25), lattice=D10,
                         strategy=Sampled(samples=200, seed=1))
        # 0.5 is on the lattice, below 14/25, and satisfies the reduct
        # to threshold 14/25? ->r(0.6, 0.5)=0.5 < 14/25, so no witness.
        assert w is None

    def test_minimized_outside_signature_rejected(self):
        f = parse_formula("p")
        i = parse_interpretation("p=1")
        with pytest.raises(SignatureError):
            find_witness(f, i, ("zz",), lattice=D10)

    def test_candidate_pools_are_the_lattice_points_below(self):
        # Program.below is the pool find_witness scans: the lattice points
        # at or below a value, in the program's domain, on either domain.
        d4 = Lattice(4)
        for text in ("p ->r p", "p &p p"):  # integer, then Fraction domain
            prog = compile_formula(parse_formula(text), ("p",), d4)
            for x in (F(0), F(1, 3), F(1, 2), F(1)):
                if prog.integer and x not in d4:
                    continue
                assert tuple(prog.below(prog.domain(x))) == tuple(
                    prog.domain(v) for v in d4.points_up_to(x))


class TestCheckStable:
    def test_statuses(self):
        f = parse_formula("not_s q ->r p")
        assert check_stable(f, parse_interpretation("p=1, q=0"),
                            lattice=D10).status == "stable"
        assert check_stable(f, parse_interpretation("p=0.5, q=0.5"),
                            lattice=D10).status == "unstable"
        assert check_stable(f, parse_interpretation("p=0, q=0.5"),
                            lattice=D10).status == "not_a_model"

    @pytest.mark.parametrize("interp", ["p=0, q=0", "p=1, q=0", "p=1/2, q=1"])
    @pytest.mark.parametrize("check", [check_stable, check_stable_via_star])
    def test_strong_negation_refused_whatever_i_is(self, check, interp):
        # At p=0 the model test stops at the left conjunct, below 1, and
        # never reaches ~q; the verdict is refused all the same.
        f = parse_formula("p &m ~q")
        with pytest.raises(StrongNegationError, match="transforms.nneg"):
            check(f, parse_interpretation(interp), minimized=("p",))

    @pytest.mark.parametrize("call", [
        lambda f, i: check_stable(f, i, lattice=D10, strategy=Sampled(50), cap=5),
        lambda f, i: check_stable(f, i.updated({"p": F(1, 3)}), lattice=D10),
        lambda f, i: check_stable(f, i, threshold=F(1, 2), lattice=D10),
        lambda f, i: check_stable_via_star(f, i, lattice=D10, cap=5),
        lambda f, i: check_stable_via_star(f, i.updated({"p": F(1, 3)}), lattice=D10),
    ], ids=["sampled past the cap", "off lattice", "threshold 1/2",
            "star past the cap", "star off lattice"])
    def test_strong_negation_refused_before_the_search(self, call):
        # The refusal follows the signature checks: the cap, the lattice
        # and the threshold are never reached.
        with pytest.raises(StrongNegationError, match="transforms.nneg"):
            call(parse_formula("p &m ~q"), parse_interpretation("p=1, q=0"))

    @pytest.mark.parametrize("check", [check_stable, check_stable_via_star])
    def test_signature_checked_before_strong_negation(self, check):
        with pytest.raises(SignatureError, match="^atom 'q' is not interpreted$"):
            check(parse_formula("p &m ~q"), parse_interpretation("p=1"))

    def test_threshold_checked_before_strong_negation(self):
        with pytest.raises(TruthError):
            check_stable(parse_formula("p &m ~q"), parse_interpretation("p=1, q=0"),
                         threshold=F(3, 2))

    def test_witness_search_refuses_the_cap_before_strong_negation(self):
        with pytest.raises(ResourceLimitError):
            find_witness(parse_formula("p &m ~q"), parse_interpretation("p=1, q=0"),
                         ("p", "q"), lattice=D10, strategy=Sampled(50), cap=5)

    def test_default_minimizes_whole_signature(self):
        f = parse_formula("p ->r p")
        v = check_stable(f, parse_interpretation("p=0.5"), lattice=D10)
        assert v.status == "unstable"
        assert v.witness == parse_interpretation("p=0")

    def test_relative_minimization(self):
        f = parse_formula("p ->r p")
        v = check_stable(f, parse_interpretation("p=0.5"), minimized=(),
                         lattice=D10)
        assert v.status == "stable"

    def test_threshold(self):
        f = parse_formula("not_s p ->r q")
        i = parse_interpretation("p=0, q=0.6")
        assert check_stable(f, i, threshold=F(6, 10), lattice=D10).status == "stable"
        assert check_stable(f, i, threshold=F(1), lattice=D10).status == "not_a_model"

    def test_verdict_metadata(self):
        f = parse_formula("p ->r p")
        v = check_stable(f, parse_interpretation("p=0.5"), lattice=D10)
        assert v.denominator == 10
        assert v.threshold == F(1)
        assert "exact over the 1/10 lattice" in v.note

    # The atoms are checked before the model test, so an input error does
    # not hinge on whether I happens to reach the threshold.
    @pytest.mark.parametrize("threshold", [F(1), F(1, 2)])
    def test_uninterpreted_atom_rejected_at_any_threshold(self, threshold):
        f = parse_formula("p &m q")
        i = Interpretation({"p": F(1, 2)})
        with pytest.raises(SignatureError, match="'q' is not interpreted"):
            check_stable(f, i, threshold=threshold, lattice=D2)
        with pytest.raises(SignatureError, match="'q' is not interpreted"):
            check_stable(f, i, minimized=("p",), threshold=threshold, lattice=D2)
        # The star route checks threshold 1 only; below it, on the guard.
        for g in (f, y_to_one(f, threshold)):
            with pytest.raises(SignatureError, match="'q' is not interpreted"):
                check_stable_via_star(g, i, lattice=D2)

    @pytest.mark.parametrize("value", [F(1, 2), F(1)])
    def test_minimized_outside_signature_rejected_model_or_not(self, value):
        f = parse_formula("p")
        i = Interpretation({"p": value})
        for threshold in (F(1), F(1, 2)):
            with pytest.raises(SignatureError, match="outside the signature"):
                check_stable(f, i, minimized=("zz",), threshold=threshold,
                             lattice=D2)
        with pytest.raises(SignatureError, match="outside the signature"):
            check_stable_via_star(f, i, minimized=("zz",), lattice=D2)

    def test_each_value_meets_the_lattice_test_once(self, monkeypatch):
        # A 300-rule chain at its answer set: every p at 1, every q at 0.
        text = "p0.\n" + "".join(f"p{k + 1} <- p{k}, not q{k}.\n" for k in range(300))
        f = program_to_formula(parse_fasp_program(text, "&m"), "&m")
        i = Interpretation({a: 1 if a.startswith("p") else 0 for a in signature_of(f)})
        constants = sum(isinstance(x, Const) for x in walk(f))
        tested = []
        contains = Lattice.__contains__

        def counted(lattice, value):
            tested.append(value)
            return contains(lattice, value)

        monkeypatch.setattr(Lattice, "__contains__", counted)
        v = check_stable(f, i, lattice=D10, strategy=Sampled(200, 0))
        assert v.status == "stable"
        assert len(tested) == len(i) + constants == 602

    def test_sampled_note_is_honest(self):
        f = parse_formula("not_s q ->r p")
        i = parse_interpretation("p=1, q=0")
        v = check_stable(f, i, lattice=D10, strategy=Sampled(samples=50, seed=3))
        assert v.status == "stable"
        assert "not exhaustive" in v.note

    def test_sampled_needs_a_sample(self):
        # With no draw the hunt finds nothing and would call an unstable
        # pair stable.
        for n in (0, -3):
            with pytest.raises(ValueError, match="samples"):
                Sampled(samples=n)
        with pytest.raises(ValueError, match="samples"):
            strategy_from_json({"kind": "sampled", "samples": 0, "seed": 0})
        f = parse_formula("p ->r p")
        i = parse_interpretation("p=1")
        assert check_stable(f, i, lattice=D10,
                            strategy=Sampled(samples=1)).status == "unstable"

    # Sampled verdicts recorded before the hunt moved to the compiled
    # program: each seed must keep drawing the same candidates in the same
    # order.  They cover the integer domain, product connectives, I off
    # the lattice (the Fraction domain) and thresholds below 1.
    @pytest.mark.parametrize("text, interp, threshold, denominator, runs", [
        ("(not_s q ->r p) &m (not_s p ->r q) &m (r ->r r)", "p=1, q=1, r=0.7", "1", 10,
         [(3, 0, "p=3/5, q=3/5, r=0"), (8, 1, "p=9/10, q=1/5, r=1/10"),
          (50, 7, "p=1/5, q=1/2, r=3/5"), (400, 11, "p=4/5, q=7/10, r=7/10")]),
        ("(p &p q ->r r) &m (0.5 ->r p) &m (0.5 ->r q) &m (0.25 ->r r)",
         "p=0.5, q=0.5, r=0.5", "1", 10,
         [(50, 7, None), (400, 11, "p=1/2, q=1/2, r=2/5")]),
        ("p ->r p", "p=1/3", "1", 10,
         [(3, 0, "p=3/10"), (8, 1, "p=1/10"), (50, 7, "p=1/5"), (400, 11, "p=3/10")]),
        ("(1/3 ->r p) &m (not_s p ->r q)", "p=1/3, q=2/3", "1", 10, [(400, 11, None)]),
        ("(p &p p ->r q) &m (0.25 ->r p) &m (not_s q ->r r)", "p=1/3, q=0.2, r=0.9",
         "0.5", 10,
         [(3, 0, "p=3/10, q=1/10, r=7/10"), (8, 1, "p=3/10, q=1/10, r=3/5"),
          (400, 11, "p=3/10, q=1/5, r=7/10")]),
        ("not_s p ->r q", "p=0, q=0.6", "0.6", 10, [(400, 11, None)]),
        ("(not_s q ->l p) &l (not_s p ->s q)", "p=0.5, q=0.75", "2/3", 4,
         [(3, 0, "p=1/4, q=3/4"), (400, 11, "p=1/4, q=3/4")]),
    ])
    def test_sampled_pins(self, text, interp, threshold, denominator, runs):
        f = parse_formula(text)
        i = parse_interpretation(interp)
        for samples, seed, witness in runs:
            v = check_stable(f, i, threshold=parse_truth(threshold),
                             lattice=Lattice(denominator),
                             strategy=Sampled(samples, seed))
            assert v.status == ("stable" if witness is None else "unstable")
            assert v.witness == (None if witness is None
                                 else parse_interpretation(witness))

    @pytest.mark.parametrize("strategy", [Exhaustive(), Sampled(40, 3)])
    @pytest.mark.parametrize("interp, status, hunts", [
        ("p=1, q=0", "stable", 1),
        ("p=0.5, q=0.5", "unstable", 1),
        ("p=0, q=0.5", "not_a_model", 0),
    ])
    def test_one_signature_walk_per_call(self, monkeypatch, strategy, interp,
                                         status, hunts):
        """f's leaves are walked once per verdict, for the signature and
        the strong-negation refusal alike, a "not_a_model" verdict
        included, and the witness hunt still goes through the module's
        find_witness, where a tracer counts it."""
        walks, calls = [], []
        leaves, find = fuzzysm.stable.leaves, fuzzysm.stable.find_witness
        monkeypatch.setattr(fuzzysm.stable, "leaves", lambda f: walks.append(f) or leaves(f))
        monkeypatch.setattr(fuzzysm.stable, "find_witness",
                            lambda *a, **k: calls.append(a) or find(*a, **k))
        f = parse_formula("not_s q ->r p")
        v = check_stable(f, parse_interpretation(interp), lattice=D10, strategy=strategy)
        assert v.status == status
        assert (len(walks), len(calls)) == (1, hunts)


class TestSampledStream:
    """The sampled hunt draws, sample by sample and atom by atom, what
    random.Random(seed).choice would draw from each atom's pool."""

    POOLS = {
        # one value: every draw still uses up random bits
        "size 1": [(0,), (0,), (5,)],
        # powers of two, where half the raw draws are rejected
        "powers of two": [tuple(range(2)), tuple(range(4)), tuple(range(8)),
                          tuple(range(16))],
        # the full pool of a D = 10 lattice, mixed with smaller ones
        "D + 1": [tuple(range(11)), tuple(range(11)), (0,), tuple(range(3))],
        # Fraction domain: off-lattice values of I join their own pool
        "off lattice": [(*D10.points_up_to(x), x)
                        for x in (F(1, 3), F(2, 3), F(1, 30), F(0))],
    }

    @pytest.mark.parametrize("name", sorted(POOLS))
    def test_same_rows_as_choice(self, name):
        pools = self.POOLS[name]
        for seed in (*range(200), -1, 2 ** 70):
            rng = random.Random(seed)
            expected = [tuple(rng.choice(p) for p in pools) for _ in range(25)]
            assert list(fuzzysm.stable._draws(pools, 25, seed)) == expected

    def test_a_seed_and_its_negation_draw_alike(self):
        # random.Random seeds with an int seed's absolute value; the
        # verdict still names the seed it was given.
        pools = self.POOLS["D + 1"]
        assert list(fuzzysm.stable._draws(pools, 25, -3)) == \
            list(fuzzysm.stable._draws(pools, 25, 3))
        f = parse_formula("not_s p ->r q")
        i = parse_interpretation("p=0, q=1")
        minus, plus = (check_stable(f, i, lattice=D10, strategy=Sampled(8, s))
                       for s in (-3, 3))
        assert minus.status == plus.status == "stable"
        assert "(seed -3)" in minus.note and "(seed 3)" in plus.note
        assert strategy_to_json(minus.strategy)["seed"] == -3

    def test_a_found_witness_ends_the_draws(self):
        f = parse_formula("p ->r p")  # every J below I is a witness
        i = parse_interpretation("p=1")
        points = D10.points_up_to(F(1))
        seed = next(s for s in itertools.count()
                    if random.Random(s).choice(points) != 1)
        first = random.Random(seed).choice(points)
        tracemalloc.start()
        try:
            j = find_witness(f, i, ["p"], lattice=D10,
                             strategy=Sampled(10 ** 6, seed))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert j == i.updated({"p": first})
        assert peak < 2 ** 20  # no storage per sample

    @pytest.mark.parametrize("args", [
        (True,), (2.5,), (F(3),), ("3",), (3, 1.5), (3, "x"), (3, False),
        (3, None),
    ])
    def test_sampled_takes_ints(self, args):
        with pytest.raises(TypeError, match="must be an int"):
            Sampled(*args)

    @pytest.mark.parametrize("samples, seed", [
        (2.7, 0), (True, 0), ("3", 0), (None, 0), (3, 1.9), (3, True),
        (3, "x"), (3.0, 0),
    ])
    def test_json_strategy_needs_json_integers(self, samples, seed):
        data = {"kind": "sampled", "samples": samples, "seed": seed}
        with pytest.raises(ValueError, match="integer samples and seed"):
            strategy_from_json(data)


class TestEnumerate:
    def test_negation_rule(self):
        models = enumerate_stable(parse_formula("not_s q ->r p"), lattice=D10)
        assert models == [parse_interpretation("q=0, p=1")]

    def test_loop_antidiagonal(self):
        f = parse_formula("(not_s q ->r p) &m (not_s p ->r q)")
        models = enumerate_stable(f, lattice=D10)
        assert len(models) == 11
        assert all(m["p"] + m["q"] == 1 for m in models)

    def test_lexicographic_order(self):
        f = parse_formula("not_s not_s p ->r p")
        models = enumerate_stable(f, lattice=D2)
        assert models == [Interpretation({"p": v}) for v in (F(0), F(1, 2), F(1))]

    def test_witness_pools_hold_no_value_per_point(self):
        # Each lattice value's witness pool is a range on the integer
        # domain, so the pool table grows with D, not with D^2 (about
        # 61 MiB at D = 4000 as tuples).
        tracemalloc.start()
        try:
            models = enumerate_stable(parse_formula("p ->r p"), lattice=Lattice(4000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert models == [parse_interpretation("p=0")]
        assert peak < 2 * 2 ** 20

    def test_jobs_agree(self):
        f = parse_formula("(not_s q ->r p) &m (not_s p ->r q)")
        assert enumerate_stable(f, lattice=D10, jobs=2) == \
            enumerate_stable(f, lattice=D10, jobs=1)

    def test_cap(self):
        f = parse_formula("p &m q &m r &m s")
        with pytest.raises(ResourceLimitError):
            enumerate_stable(f, lattice=D10, cap=1000)

    def test_cap_message_is_the_candidates_one(self):
        f = parse_formula("p &m q &m r &m s")
        with pytest.raises(ResourceLimitError, match=(
                "^14641 candidates exceed the cap of 1000; "
                "raise the cap to scan them all$")):
            enumerate_stable(f, lattice=D10, cap=1000)

    def test_threshold_enumeration(self):
        f = parse_formula("not_s p ->r q")
        models = enumerate_stable(f, threshold=F(6, 10), lattice=Lattice(5))
        assert Interpretation({"p": F(0), "q": F(3, 5)}) in models

    @pytest.mark.parametrize("text, minimized, threshold, denominator", [
        # product connectives: the Fraction domain
        ("(not_s q ->r p) &p (p |p not_s r)", None, F(1, 2), 3),
        # a constant off the lattice: the Fraction domain
        ("(0.3 ->l p) &m (not_s p ->r q)", None, F(1), 4),
        # a threshold off the lattice on the integer domain
        ("(not_s q ->l p) &l (not_s p ->s q)", None, F(2, 3), 4),
        ("(not_s q ->r p) &m (not_s p ->r q) &m (r |m not_s r)", ("p", "r"), F(1), 3),
        ("(not_s q ->r p) &m (not_s p ->r q)", (), F(3, 4), 4),
        # constant-only formulas: the empty signature
        ("0.5 ->r 1", None, F(1), 4),
        ("0.5 ->r 0.25", None, F(1), 4),
    ])
    def test_matches_check_stable(self, text, minimized, threshold, denominator):
        f = parse_formula(text)
        lattice = Lattice(denominator)
        sig = signature_of(f)
        points = itertools.product(list(lattice.points()), repeat=len(sig))
        candidates = [Interpretation(zip(sig, combo)) for combo in points]
        verdicts = [check_stable(f, i, minimized, threshold, lattice)
                    for i in candidates]
        expected = [i for i, v in zip(candidates, verdicts) if v.status == "stable"]
        assert enumerate_stable(f, minimized, threshold, lattice) == expected
        # check_stable shares its witness kernel with enumerate_stable, so
        # the shadow rewrite, which shares neither, checks both.
        guarded = y_to_one(f, threshold)
        for i, v in zip(candidates, verdicts):
            star = check_stable_via_star(guarded, i, minimized, lattice)
            assert (v.status, v.witness) == (star.status, star.witness)

    def test_cap_bounds_the_witness_search(self, monkeypatch):
        # The per-point witness search once used the module's default cap
        # instead of the cap passed in.
        f = parse_formula("(not_s q ->r p) &m (not_s p ->r q) &m (r ->r r)")
        expected = enumerate_stable(f, lattice=D2, cap=1000)
        monkeypatch.setattr(fuzzysm.stable, "DEFAULT_CANDIDATE_CAP", 5)
        assert enumerate_stable(f, lattice=D2, cap=1000) == expected

    def test_errors_unchanged(self, monkeypatch):
        with pytest.raises(StrongNegationError):
            enumerate_stable(parse_formula("~p ->r q"), lattice=D2)
        with pytest.raises(SignatureError):
            enumerate_stable(parse_formula("p ->r q"), minimized=("r",), lattice=D2)

        def no_scan(*args):
            raise AssertionError("scanned past the cap")

        monkeypatch.setattr(fuzzysm.stable, "_stable_points", no_scan)
        with pytest.raises(ResourceLimitError):
            enumerate_stable(parse_formula("p &m q &m r &m s"), lattice=D10, cap=1000)

    def test_witness_pools_built_on_first_use(self):
        # On the Fraction domain a table of every point's witness pool
        # would hold D^2 / 2 values: 15.6 MiB at D = 2000.
        f = parse_formula("p ->r (p &p p)")
        tracemalloc.start()
        try:
            models = enumerate_stable(f, lattice=Lattice(2000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert models == [Interpretation({"p": F(0)})]
        assert peak < 2 ** 20

    def test_cap_refuses_before_compiling(self):
        # Compiling builds the lattice's D + 1 points; the grid is refused
        # before that, so a refusal costs the same at any D.
        f = parse_formula("p &m q")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=(
                    f"^{(10 ** 6 + 1) ** 2} candidates exceed the cap of ")):
                enumerate_stable(f, lattice=Lattice(10 ** 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestStarTransform:
    def test_atom_renaming_and_implication_guards(self):
        f = parse_formula("not_s q ->r p")
        fresh = shadow_names(("p", "q"), ("p", "q"))
        star = star_transform(f, ("p", "q"), fresh)
        assert print_formula(star) == \
            "(not_s q ->r p_shadow) &m (not_s q ->r p)"

    def test_shadow_name_collision_avoided(self):
        names = shadow_names(("p", "p_shadow"), ("p",))
        assert names["p"] != "p_shadow"

    def test_shadow_names_once_per_atom(self):
        names = shadow_names(("p", "q"), ("q", "p", "q"))
        assert list(names.items()) == [("q", "q_shadow"), ("p", "p_shadow")]
        with pytest.raises(SignatureError, match=r"outside the signature: \['zz'\]"):
            shadow_names(("p",), ("p", "zz"))

    def test_rejects_strongneg(self):
        with pytest.raises(StrongNegationError):
            star_transform(parse_formula("~p"), ("p",), {"p": "p2"})

    def test_star_check_agrees(self):
        f = parse_formula("(not_s q ->r p) &m (not_s p ->r q)")
        for text in ("p=0.5, q=0.5", "p=1, q=0", "p=0.5, q=0.4"):
            i = parse_interpretation(text)
            a = check_stable(f, i, lattice=D10)
            b = check_stable_via_star(f, i, lattice=D10)
            assert a.status == b.status
            assert a.witness == b.witness


class TestThresholdGuard:
    def test_guard_formula(self):
        f = parse_formula("not_s p ->r q")
        g = y_to_one(f, F(6, 10))
        assert print_formula(g) == "0.6 ->r not_s p ->r q"
        assert parse_formula(print_formula(g)) == g

    def test_non_residual_rejected(self):
        with pytest.raises(ValueError, match="y >= x"):
            y_to_one(parse_formula("p"), F(1, 2), impl="->s")

    def test_lukasiewicz_impl_allowed(self):
        g = y_to_one(parse_formula("p"), F(1, 2), impl="->l")
        assert print_formula(g) == "0.5 ->l p"


class TestBooleanOracle:
    def test_classical_default(self):
        f = parse_formula("not_s q ->s p")
        yes = BoolInterpretation(("p", "q"), frozenset({"p"}))
        assert boolean_stable_check(f, yes).status == "stable"
        both = BoolInterpretation(("p", "q"), frozenset({"p", "q"}))
        assert boolean_stable_check(f, both).status != "stable"

    def test_unsupported_atom_unstable(self):
        f = parse_formula("p ->s p")
        x = BoolInterpretation(("p",), frozenset({"p"}))
        v = boolean_stable_check(f, x)
        assert v.status == "unstable"
        assert v.witness.true_atoms == frozenset()

    def test_fuzzy_shape_rejected(self):
        with pytest.raises(ValueError):
            boolean_stable_check(parse_formula("p &m 0.5"),
                                 BoolInterpretation(("p",), frozenset()))


class TestProgramOracle:
    def test_simple_default_program(self):
        rules = parse_fasp_program("p <- not q.", "&m")
        good = Interpretation({"p": F(1), "q": F(0)})
        bad = Interpretation({"p": F(1, 2), "q": F(1, 2)})
        assert fasp_answer_set_check(rules, good, D10)
        assert not fasp_answer_set_check(rules, bad, D10)

    def test_graded_fact(self):
        rules = parse_fasp_program("p <- 0.4.", "&m")
        assert fasp_answer_set_check(
            rules, Interpretation({"p": F(4, 10)}), D10)
        assert not fasp_answer_set_check(
            rules, Interpretation({"p": F(5, 10)}), D10)

    def test_answer_sets_enumeration(self):
        rules = parse_fasp_program("p <- not q.\nq <- not p.", "&m")
        sets = fasp_answer_sets(rules, Lattice(2))
        expected = {
            Interpretation({"p": F(1), "q": F(0)}),
            Interpretation({"p": F(1, 2), "q": F(1, 2)}),
            Interpretation({"p": F(0), "q": F(1)}),
        }
        assert set(sets) == expected

    def test_agrees_with_formula_engine(self):
        rules = parse_fasp_program("p <- q, not r.\nq <- 0.5.\nr <- not p.", "&l")
        f = program_to_formula(rules, "&m")
        lat = Lattice(4)
        for i in fasp_answer_sets(rules, lat):
            assert check_stable(f, i, lattice=lat).status == "stable"


class TestJsonRoundTrips:
    def test_strategy(self):
        for s in (Exhaustive(), Sampled(samples=10, seed=2)):
            assert strategy_from_json(strategy_to_json(s)) == s
        # Verdict JSON written while the exhaustive search had a process
        # pool still loads.
        assert strategy_from_json({"kind": "exhaustive", "jobs": 2}) == Exhaustive()

    def test_verdicts(self):
        f = parse_formula("p ->r p")
        for interp in ("p=0.5", "p=0"):
            v = check_stable(f, parse_interpretation(interp), lattice=D10)
            assert verdict_from_json(verdict_to_json(v)) == v

    def test_verdict_json_is_plain_data(self):
        import json
        f = parse_formula("0.5 ->r p")
        v = check_stable(f, parse_interpretation("p=1"), lattice=D10)
        assert v.witness == parse_interpretation("p=1/2")
        text = json.dumps(verdict_to_json(v))
        assert "1/2" in text  # values carried as exact fraction strings
