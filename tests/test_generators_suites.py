"""Determinism of the random generators and the invariant suite registry."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzysm
import fuzzysm.suites as suites

from fuzzysm import (
    Lattice,
    atoms,
    evaluate,
    gen_bool_interpretation,
    gen_formula,
    gen_interpretation,
    gen_lower_interpretation,
    gen_program,
    print_formula,
    program_to_formula,
    run_all,
    run_suite,
    suite_names,
)
from fuzzysm.generators import (
    ALL_OPERATORS,
    CLASSICAL_OPERATORS,
    LATTICE_SAFE_OPERATORS,
)
from fuzzysm.semantics import _reduct

D4 = Lattice(4)
MANIFEST = Path(__file__).resolve().parent.parent / "docs" / "properties.md"


class TestGenerators:
    def test_formula_deterministic(self):
        a = gen_formula(7, ("p", "q"), max_depth=4)
        b = gen_formula(7, ("p", "q"), max_depth=4)
        assert a == b
        assert gen_formula(8, ("p", "q"), max_depth=4) != a

    def test_formula_respects_signature_and_pool(self):
        for seed in range(40):
            f = gen_formula(seed, ("p", "q", "r"),
                            operator_pool=CLASSICAL_OPERATORS)
            assert set(atoms(f)) <= {"p", "q", "r"}
            used = set(re.findall(r"&\w|\|\w|->\w|not_s", print_formula(f)))
            assert used <= set(CLASSICAL_OPERATORS)

    def test_formula_constants_on_lattice(self):
        points = set(D4.points())
        for seed in range(40):
            f = gen_formula(seed, ("p",), lattice=D4)
            for m in re.findall(r"\b\d+/\d+|\b[01]\b|\b0\.\d+", print_formula(f)):
                pass  # shape only; exactness is asserted through evaluation
            i = gen_interpretation(seed, atoms(f), D4)
            assert evaluate(f, i) in Lattice(4 * 3 * 5)  # safe ops stay rational

    def test_strongneg_only_when_allowed(self):
        texts = [print_formula(gen_formula(s, ("p", "q"), allow_strongneg=False))
                 for s in range(60)]
        assert not any("~" in t for t in texts)
        texts = [print_formula(gen_formula(s, ("p", "q"), allow_strongneg=True))
                 for s in range(60)]
        assert any("~" in t for t in texts)

    def test_interpretation_deterministic_and_on_lattice(self):
        i = gen_interpretation(3, ("p", "q", "r"), D4)
        assert i == gen_interpretation(3, ("p", "q", "r"), D4)
        assert all(v in D4 for v in i.values())

    def test_lower_interpretation_bounds(self):
        i = gen_interpretation(3, ("p", "q", "r"), D4)
        for seed in range(30):
            j = gen_lower_interpretation(seed, i, ("p", "q"), D4)
            assert j["p"] <= i["p"] and j["q"] <= i["q"]
            assert j["r"] == i["r"]
            assert all(v in D4 for v in j.values())

    def test_bool_interpretation(self):
        x = gen_bool_interpretation(5, ("p", "q", "r"))
        assert x == gen_bool_interpretation(5, ("p", "q", "r"))
        assert x.true_atoms <= {"p", "q", "r"}

    def test_program_deterministic_and_translatable(self):
        rules = gen_program(11, ("p", "q"), max_rules=4)
        assert rules == gen_program(11, ("p", "q"), max_rules=4)
        f = program_to_formula(rules, "&m")
        assert set(atoms(f)) <= {"p", "q"}

    def test_operator_pools(self):
        assert set(LATTICE_SAFE_OPERATORS) <= set(ALL_OPERATORS)
        assert "&p" in ALL_OPERATORS and "&p" not in LATTICE_SAFE_OPERATORS
        assert "|p" not in LATTICE_SAFE_OPERATORS
        assert set(CLASSICAL_OPERATORS) <= set(LATTICE_SAFE_OPERATORS)


class TestSuites:
    def test_import_leaves_the_suites_unloaded(self):
        """`import fuzzysm` loads neither the suites nor the interval
        engine, the rewrites or the generators; the package names what
        they define, and `from fuzzysm import *` brings it, on first
        use."""
        lazy = ("suites", "equilibrium", "transforms", "generators")
        code = ("import sys, fuzzysm\n"
                f"lazy = {lazy!r}\n"
                "assert not [m for m in lazy if 'fuzzysm.' + m in sys.modules]\n"
                "assert fuzzysm.nneg is sys.modules['fuzzysm.transforms'].nneg\n"
                "from fuzzysm import *\n"
                "assert all('fuzzysm.' + m in sys.modules for m in lazy)\n"
                "assert run_all is fuzzysm.run_all is sys.modules['fuzzysm.suites'].run_all\n"
                "assert Interval is sys.modules['fuzzysm.equilibrium'].Interval\n"
                "assert gen_formula is sys.modules['fuzzysm.generators'].gen_formula\n"
                "from fuzzysm import equilibrium, transforms\n"
                "assert transforms.nneg is nneg and equilibrium.Interval is Interval\n")
        env = {**os.environ, "PYTHONPATH": str(Path(suites.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        with pytest.raises(AttributeError, match="no_such_name"):
            fuzzysm.no_such_name

    def test_registry_matches_documented_manifest(self):
        rows = re.findall(r"^\| `([a-z0-9-]+)` \|", MANIFEST.read_text(), re.M)
        assert rows == list(suite_names())

    def test_manifest_markers_match_the_registry(self):
        rows = dict(re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$",
                               MANIFEST.read_text(), re.M))
        marked = {"(exhaustive)": [], "(pinned)": []}
        for name, (control, trial, note) in suites._SUITES.items():
            exhaustive = (control is not None and trial is None
                          and note == suites._EXHAUSTIVE_NOTE)
            assert ("(exhaustive)" in rows[name]) == exhaustive, name
            assert ("(pinned)" in rows[name]) == ("pinned" in note), name
            for marker in marked:
                if marker in rows[name]:
                    marked[marker].append(name)
        assert marked == {
            "(exhaustive)": ["operator-axioms", "residual-flags", "lattice-closure"],
            "(pinned)": ["reduct-wrapper-counterexample", "choice-exemption"]}

    def test_only_run_suite_seeds_and_loops(self):
        """Each suite is a control and a trial; the seeded loop over the
        trial count lives in run_suite alone."""
        tree = ast.parse(Path(suites.__file__).read_text(encoding="utf-8"))
        seeds, loops = set(), set()
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_master"):
                    seeds.add(fn.name)
                if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                        and isinstance(node.iter.func, ast.Name)
                        and node.iter.func.id == "range"
                        and any(isinstance(a, ast.Name) and a.id == "trials"
                                for a in node.iter.args)):
                    loops.add(fn.name)
        assert seeds == {"run_suite"}
        assert loops == {"run_suite"}

    def test_every_suite_passes_briefly(self):
        reports = run_all(trials=25, seed=0, lattice=Lattice(3))
        failed = [r.suite for r in reports if not r.passed]
        assert failed == []
        assert [r.suite for r in reports] == list(suite_names())

    def test_single_suite_report(self):
        r = run_suite("operator-axioms", trials=10, seed=1)
        assert r.passed and r.suite == "operator-axioms"
        assert r.trials >= 10  # exhaustive parts may run more checks
        assert r.counterexample is None

    def test_seed_changes_are_still_green(self):
        for seed in (1, 2):
            r = run_suite("reduct-value-equality", trials=20, seed=seed)
            assert r.passed, r.counterexample

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("no-such-suite")

    def test_trials_below_one_rejected(self):
        # No trial run would read as a pass; exhaustive suites, which
        # ignore the count, reject it too.
        for name in ("reduct-value-equality", "operator-axioms"):
            for trials in (0, -3):
                with pytest.raises(ValueError, match="trials must be at least 1"):
                    run_suite(name, trials=trials)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_all(trials=0)

    def test_counterexamples_under_a_wrapper_fault(self, monkeypatch):
        """Capping the reduct with the Lukasiewicz t-norm instead of the
        minimum: the suites that see it report these exact
        counterexamples, which pins both their draws and their text."""
        monkeypatch.setattr(
            suites, "fuzzy_reduct",
            lambda f, i, simplified=True: _reduct(f, i, simplified, "&l"))
        reports = run_all(500, 0, Lattice(4))
        failed = {r.suite: r.counterexample for r in reports if not r.passed}
        assert failed == {
            "reduct-value-equality":
                "formula = not_s (q |p q) |p (q ->s 0 &p p); i = p=1, q=0.75; "
                "reduct = 0.0625 |p (q ->s 0 &p p) &l 0.25; simplified = True",
            "reduct-simplified-agreement":
                "formula = (1 |p q) &p 0.75 |p (q |p (p |m q)); i = p=1, q=0.5; "
                "j = p=0.25, q=0.5; lean = 15/16; full = 7/8",
            "reduct-wrapper-counterexample":
                "problem = minimum wrapper no longer keeps the value; value = 1/5",
            "compiled-evaluation-agreement":
                "formula = not_s p |m (q ->l 1/12) |m not_s q; i = p=5/6, q=5/12; "
                "j = p=0, q=0.25; minimized = ('p', 'q'); threshold = 2/3; "
                "kernel = True; reference = False; integer = False",
            "shadow-merge-value":
                "formula = not_s 1 &p (p |l p) |m ((q ->l p) |m 0.5); "
                "i = p=0.75, q=1; j = p=0.75, q=1; minimized = ('p',); "
                "star = 3/4; reduct = 1/2",
            "paired-valuation-values":
                "formula = not_s p &m (0.5 |m p) &m ((q ->s 0) &m 1); "
                "i = p=0, q=0.75; j = p=0, q=0.75; h_lower = 1/4; reduct_value = 0",
        }
        assert len(reports) - len(failed) == 24

    def test_pinned_suites_note_their_controls(self):
        # the wrapper and threshold suites carry fixed counterexamples;
        # their notes say so
        assert "pinned" in run_suite("reduct-wrapper-counterexample", 5, 0).note
        assert "pinned" in run_suite("choice-exemption", 5, 0).note
