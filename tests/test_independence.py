"""The independence rule, checked on the code itself: the cross-check
routes share no semantics with the direct checker, which runs on the
compiled program, and the one scan helper they share knows no semantics."""
import ast
import types

import fuzzysm.algebra as algebra
import fuzzysm.compiled as compiled
import fuzzysm.equilibrium as equilibrium
import fuzzysm.stable as stable

ROUTES = (stable.check_stable_via_star, stable.boolean_stable_check,
          stable.fasp_answer_set_check)


def _names(code: types.CodeType) -> set[str]:
    """The global and attribute names a function's code refers to,
    including its inner functions and comprehensions."""
    out = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= _names(const)
    return out


def _kernel_names() -> set[str]:
    """What compiled.py defines, and every function of stable.py that
    reaches it, directly or through another such function."""
    names = {name for name, obj in vars(compiled).items()
             if callable(obj) and getattr(obj, "__module__", None) == compiled.__name__}
    names.add("reduct_checks")  # a Program method, called as an attribute
    functions = {name: obj for name, obj in vars(stable).items()
                 if isinstance(obj, types.FunctionType)
                 and obj.__module__ == stable.__name__}
    while True:
        users = {name for name, fn in functions.items()
                 if _names(fn.__code__) & names} - names
        if not users:
            return names
        names |= users


def test_equilibrium_imports_no_stable_engine():
    tree = ast.parse(open(equilibrium.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    for module in ("stable", "semantics", "compiled"):
        assert "." + module not in imported
        assert "fuzzysm." + module not in imported


def test_routes_use_no_compiled_kernel():
    kernel = _kernel_names()
    # The guard means something only if the direct checker is caught.
    assert {"find_witness", "check_stable", "enumerate_stable"} <= kernel
    for route in ROUTES:
        assert not _names(route.__code__) & kernel, route.__name__


def test_find_witness_runs_on_the_compiled_program():
    assert not _names(stable.find_witness.__code__) & {"fuzzy_reduct", "value_is_one"}


def test_candidates_knows_no_semantics():
    semantics = {"evaluate", "value_is_one", "_pair", "run", "first_witness"}
    assert not _names(algebra.candidates.__code__) & semantics


def test_exhaustive_routes_scan_through_candidates():
    for route in ROUTES + (stable.find_witness, stable.fasp_answer_sets,
                           equilibrium._h_violation,
                           equilibrium.enumerate_equilibrium):
        names = _names(route.__code__)
        assert "candidates" in names and "product" not in names, route.__name__


def test_h_violation_scans_plain_pairs():
    assert not _names(equilibrium._h_violation.__code__) & {"Valuation", "Interval"}
