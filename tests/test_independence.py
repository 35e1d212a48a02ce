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


def _capping_loops(source: str) -> set[str]:
    """The functions (qualified by their enclosing functions and classes)
    that hold a capped instruction loop: a for loop or comprehension that
    unpacks an instruction 5-tuple (slot, fn, left, right, family) and
    compares a value with one indexed by the instruction's slot, or takes
    the min of the two, as the reduct test's implication cap does."""
    found = set()

    def capped(loop: ast.AST, target: ast.AST) -> bool:
        slots = {t.elts[0].id for t in ast.walk(target)
                 if isinstance(t, ast.Tuple) and len(t.elts) == 5
                 and all(isinstance(e, ast.Name) for e in t.elts)}

        def by_slot(x: ast.AST) -> bool:
            return (isinstance(x, ast.Subscript) and isinstance(x.slice, ast.Name)
                    and x.slice.id in slots)

        for n in ast.walk(loop):
            if isinstance(n, ast.Compare) and any(map(by_slot, [n.left, *n.comparators])):
                return True
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "min" and any(map(by_slot, n.args))):
                return True
        return False

    def visit(node: ast.AST, qual: str) -> None:
        for n in _own_nodes(node):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(n, f"{qual}.{n.name}" if qual else n.name)
            elif isinstance(n, ast.For) and capped(n, n.target):
                found.add(qual)
            elif isinstance(n, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                if any(capped(n, gen.target) for gen in n.generators):
                    found.add(qual)

    visit(ast.parse(source), "")
    return found


def test_capping_guard_sees_a_second_capped_loop():
    """A witness test of the bottom candidate with its own capped loop,
    outside level_scan, is what the guard below must catch."""
    source = """
def _stable_points(prog, moving, cut):
    def bottom(code, work, vals):
        for k, fn, a, b, family in code:
            x = fn[work[a]][work[b]]
            if family is OpFamily.IMPLICATION and x > vals[k]:
                x = vals[k]
            work[k] = x
    return bottom

class Scan:
    def first(self, code, work, at_i):
        return [min(fn[work[a]][work[b]], at_i[k]) for k, fn, a, b, _ in code]

def run(code, vals):
    for k, fn, a, b, _ in code:
        vals[k] = fn[vals[a]][vals[b]]
"""
    assert _capping_loops(source) == {"_stable_points.bottom", "Scan.first"}


def test_no_loop_caps_implications():
    # The reduct test's implication cap is an instruction that
    # Program.capped writes: no function of the package holds a capped
    # instruction loop.
    package = pathlib.Path(compiled.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    loops = {f"{path.stem}:{name}"
             for path in modules
             for name in _capping_loops(path.read_text(encoding="utf-8"))}
    assert loops == set()
    # And no module-level function of compiled reads the implication
    # family: the scan and the kernels that run it have no semantics.
    capping = {name for name, obj in vars(compiled).items()
               if isinstance(obj, types.FunctionType)
               and obj.__module__ == compiled.__name__
               and {"IMPLICATION", "_IMPLICATION"} & _names(obj.__code__)}
    assert capping == set()


SEMANTICS = {"evaluate", "op_apply", "value_is_one", "_pair", "_t_run", "_h_run",
             "run", "witness_in"}


def test_candidates_knows_no_semantics():
    assert not _names(algebra.candidates.__code__) & SEMANTICS


def test_fold_knows_no_semantics():
    assert not _names(syntax.fold.__code__) & SEMANTICS


def test_exhaustive_routes_scan_through_candidates():
    for route in ROUTES + (stable.fasp_answer_sets, equilibrium._h_violation,
                           equilibrium.enumerate_equilibrium):
        names = _names(route.__code__)
        assert "candidates" in names and "product" not in names, route.__name__


def test_find_witness_scans_through_witness_in_alone():
    # find_witness checks its cap with check_cap and scans only through
    # the witness kernel: no candidates iterator, no product of its own.
    names = _names(stable.find_witness.__code__)
    assert "witness_in" in names and "check_cap" in names
    assert not names & {"candidates", "product", "first_witness"}


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
    In the interval engine only _pair, which serves n5_evaluate, recurses.
    The parser's depth is bounded by syntax.MAX_NESTING."""
    found = {}
    for module in (syntax, semantics, transforms, stable, compiled, equilibrium):
        with open(module.__file__, encoding="utf-8") as fh:
            found[module.__name__] = _recursive_functions(fh.read())
    assert found["fuzzysm.semantics"] == {"evaluate", "value_is_one"}
    assert found["fuzzysm.equilibrium"] == {"_pair"}
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
        assert not _names(fn.__code__) & {"walk", "leaves", "StrongNeg"}, fn.__name__


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
