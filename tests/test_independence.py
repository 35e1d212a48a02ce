"""The independence rule, checked on the code itself: the cross-check
routes share no semantics with the direct checker, which runs on the
compiled program, and the scan and fold helpers they share know no
semantics.  Also: formula rewrites go through syntax.fold, not through
recursion, and the package starts no process."""
import ast
import pathlib
import types

import fuzzysm.algebra as algebra
import fuzzysm.compiled as compiled
import fuzzysm.equilibrium as equilibrium
import fuzzysm.semantics as semantics
import fuzzysm.stable as stable
import fuzzysm.syntax as syntax
import fuzzysm.transforms as transforms

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


def test_only_level_scan_caps_implications():
    # The reduct test's implication cap is applied in one place.
    capping = {name for name, obj in vars(compiled).items()
               if isinstance(obj, types.FunctionType)
               and obj.__module__ == compiled.__name__
               and "IMPLICATION" in _names(obj.__code__)}
    assert capping == {"level_scan"}


SEMANTICS = {"evaluate", "op_apply", "value_is_one", "_pair", "run", "first_witness"}


def test_candidates_knows_no_semantics():
    assert not _names(algebra.candidates.__code__) & SEMANTICS


def test_fold_knows_no_semantics():
    assert not _names(syntax.fold.__code__) & SEMANTICS


def test_exhaustive_routes_scan_through_candidates():
    for route in ROUTES + (stable.find_witness, stable.fasp_answer_sets,
                           equilibrium._h_violation,
                           equilibrium.enumerate_equilibrium):
        names = _names(route.__code__)
        assert "candidates" in names and "product" not in names, route.__name__


def test_h_violation_scans_plain_pairs():
    assert not _names(equilibrium._h_violation.__code__) & {"Valuation", "Interval"}


def _own_nodes(fn: ast.AST):
    """The nodes of a function's body, without those of the functions and
    classes defined inside it (which are yielded, not entered)."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _recursive_functions(source: str) -> set[str]:
    """Qualified names of the functions that reach themselves through the
    functions they name, called or passed on: f resolved through the
    enclosing functions and the module, self.f to a method of the same
    class."""
    calls: dict[str, set[str]] = {}

    def add(fn, qual: str, scope: dict[str, str], methods: dict[str, str]) -> None:
        inner = [n for n in _own_nodes(fn) if isinstance(n, ast.FunctionDef)]
        scope = {**scope, **{n.name: f"{qual}.{n.name}" for n in inner}}
        calls[qual] = set()
        for n in _own_nodes(fn):
            if isinstance(n, ast.Name) and n.id in scope:
                calls[qual].add(scope[n.id])
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id == "self" and n.attr in methods):
                calls[qual].add(methods[n.attr])
        for n in inner:
            add(n, f"{qual}.{n.name}", scope, methods)

    tree = ast.parse(source)
    top = {n.name: n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    for n in tree.body:
        if isinstance(n, ast.FunctionDef):
            add(n, n.name, top, {})
        elif isinstance(n, ast.ClassDef):
            defs = [m for m in n.body if isinstance(m, ast.FunctionDef)]
            methods = {m.name: f"{n.name}.{m.name}" for m in defs}
            for m in defs:
                add(m, methods[m.name], top, methods)

    def reaches_itself(start: str) -> bool:
        seen, stack = set(), list(calls[start])
        while stack:
            name = stack.pop()
            if name == start:
                return True
            if name not in seen:
                seen.add(name)
                stack.extend(calls.get(name, ()))
        return False

    return {name for name in calls if reaches_itself(name)}


def test_recursion_guard_sees_inner_and_mutual_recursion():
    source = """
def rewrite(f):
    def build(node):
        return build(node.left)
    return build(f)

def render(f):
    def wrap(node):
        return text(node)
    def text(node):
        return wrap(node.body)
    return text(f)

class Walker:
    def down(self, x):
        return self.up(x)
    def up(self, x):
        return self.apply(self.down, x)
    def apply(self, fn, x):
        return fn(x)

def flat(f):
    return [g for g in f]
"""
    assert _recursive_functions(source) == {
        "rewrite.build", "render.wrap", "render.text", "Walker.down", "Walker.up"}


def test_no_recursive_rewrites():
    """evaluate and value_is_one stay recursive: they are the reference
    definitions, and the deep-chain benchmark input is meant to fail there.
    The parser's depth is bounded by syntax.MAX_NESTING."""
    found = {}
    for module in (syntax, semantics, transforms, stable, compiled):
        with open(module.__file__, encoding="utf-8") as fh:
            found[module.__name__] = _recursive_functions(fh.read())
    assert found["fuzzysm.semantics"] == {"evaluate", "value_is_one"}
    parser = {name for name in found["fuzzysm.syntax"] if name.startswith("_Parser.")}
    assert parser == {"_Parser.formula", "_Parser.disjunction",
                      "_Parser.conjunction", "_Parser.unary"}
    assert found["fuzzysm.syntax"] == parser
    for name in ("fuzzysm.transforms", "fuzzysm.stable", "fuzzysm.compiled"):
        assert found[name] == set(), name


def test_counter_routes_keep_the_full_scan():
    """The scan is pruned by where atoms occur only inside
    enumerate_equilibrium: the routes that return a counter read no
    occurrences, so their counter stays the first in full scan order."""
    for fn in (equilibrium._h_violation, equilibrium.find_h_violation,
               equilibrium.is_equilibrium):
        assert not _names(fn.__code__) & {"walk", "StrongNeg"}, fn.__name__


PROCESS_MODULES = {"concurrent", "multiprocessing", "subprocess"}


def _imported_modules(source: str) -> set[str]:
    """Every module an import statement names, at any depth of the
    module (function bodies included), by its top-level package."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_package_starts_no_process():
    """Every search runs in the calling process: no module imports a
    process or thread-pool module, so nothing can spawn workers."""
    package = pathlib.Path(algebra.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    assert "concurrent" in _imported_modules(
        "def f():\n    from concurrent.futures import ProcessPoolExecutor\n")
    for path in modules:
        found = _imported_modules(path.read_text(encoding="utf-8"))
        assert not found & PROCESS_MODULES, path.name
