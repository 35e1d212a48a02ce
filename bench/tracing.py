"""Outside-in layer tracing for the traced benchmark run.

The tracer replaces module-level names of the package with timing
wrappers and restores them afterwards; nothing under src/ changes.  It
wraps the names each layer's callers reach:

- in fuzzysm.stable: satisfies, evaluate, value_is_one, fuzzy_reduct,
  find_witness, check_stable (so enumerate_stable's and check_stable's
  own calls are seen), and enumerate_stable;
- fuzzysm.semantics.op_apply, counted only (it runs inside evaluate);
- in fuzzysm.equilibrium: is_n5_model, find_h_violation,
  enumerate_equilibrium;
- fuzzysm.syntax.parse_formula / parse_fasp_program and
  fuzzysm.transforms.nneg, which the benchmark calls through the module;
- the same entry points as bound in fuzzysm.cli, for in-process main().

Every call pushes a frame; on return its duration is added to its parent
frame, and self time is the duration minus the children's.  Spans (id,
parent id, operation id, name, start, end) are kept in memory for every
wrapped call except the hot leaves listed in HOT, which are aggregated
only; `dump` writes them out at the end.  A name missing from the package
(say, after a refactor) is recorded as absent and its metrics read 0; a
bookkeeping hook that no longer fits its function is recorded as broken.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import math
from collections import Counter
from time import perf_counter

# Called once per candidate or connective: aggregate, keep no span.
HOT = {"semantics.value_is_one", "semantics.evaluate", "equilibrium.n5_model",
       "semantics.satisfies"}


class NullTracer:
    """Stands in for the tracer in untraced passes."""

    def span(self, name):
        return contextlib.nullcontext()

    def op(self, op_id, name):
        return contextlib.nullcontext()

    def after_op(self):
        pass


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child seconds, span id]
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self.op_id = None
        self.op_names: dict[str, str] = {}
        self._next_span = 0
        self._patches: list[tuple] = []
        self._in_enumerate = 0

    # accounting ---------------------------------------------------------

    def _total(self, name):
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def _enter(self, name):
        span_id = None
        if name not in HOT:
            self._next_span += 1
            span_id = self._next_span
        frame = [0.0, span_id]
        self.stack.append(frame)
        return frame

    def _exit(self, name, frame, t0, t1):
        self.stack.pop()
        dur = t1 - t0
        tot = self._total(name)
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[0]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[0] += dur
        if frame[1] is not None:
            self.spans.append((frame[1], parent[1] if parent else None, self.op_id,
                               name, t0, t1))

    def _bookkeeping(self, seconds):
        """Tracer work done inside a parent span is not the parent's time."""
        if self.stack:
            self.stack[-1][0] += seconds

    @contextlib.contextmanager
    def span(self, name):
        frame = self._enter(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, t0, perf_counter())

    @contextlib.contextmanager
    def op(self, op_id, name):
        self.op_id = op_id
        self.op_names[op_id] = name
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = None

    # wrapping -----------------------------------------------------------

    def wrap(self, module, attr, name, before=None, after=None):
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        enter, leave, bookkeeping = self._enter, self._exit, self._bookkeeping
        broken = self.broken

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            frame = enter(name)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                leave(name, frame, t0, perf_counter())
            if after:
                ta = perf_counter()
                try:
                    after(result, args, kwargs, token)
                except (AttributeError, KeyError, TypeError) as exc:
                    # a changed signature or result: report, do not fail the op
                    broken.add(f"{name} bookkeeping ({type(exc).__name__}: {exc})")
                bookkeeping(perf_counter() - ta)
            return result

        self._patches.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def count(self, module, attr, name):
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return orig(*args)

        self._patches.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def install(self):
        import fuzzysm.cli as cl
        import fuzzysm.equilibrium as eq
        import fuzzysm.semantics as sem
        import fuzzysm.stable as st
        import fuzzysm.syntax as syn
        import fuzzysm.transforms as tf
        from fuzzysm import Sampled, signature_of, walk

        def nodes(formula):
            return sum(1 for _ in walk(formula))

        def parsed(result, args, kwargs, token):
            if isinstance(result, list):  # a program: heads and body literals
                self.counts["syntax.parse_nodes"] += sum(
                    1 + len(r.pos) + len(r.neg) for r in result)
            else:
                self.counts["syntax.parse_nodes"] += nodes(result)

        def reduct(result, args, kwargs, token):
            self.counts["semantics.reduct_nodes"] += nodes(result)

        def checked(verdict, args, kwargs, token):
            self.counts[f"stable.verdicts_{verdict.status}"] += 1
            if self._in_enumerate and verdict.status != "not_a_model":
                self.counts["stable.enumerate_models"] += 1

        witness_sig = _signature(st, "find_witness")

        def witness_before(args, kwargs):
            return self._total("semantics.reduct")[0]

        def witness_after(result, args, kwargs, reducts_before):
            if self._total("semantics.reduct")[0] == reducts_before:
                return  # returned before building a reduct: nothing scanned
            self.counts["stable.witness_candidates"] += witness_candidates(
                _bound(witness_sig, args, kwargs), result, Sampled, signature_of)

        enum_sig = _signature(st, "enumerate_stable")

        def enum_before(args, kwargs):
            self._in_enumerate += 1

        def enum_after(result, args, kwargs, token):
            self._in_enumerate -= 1
            a = _bound(enum_sig, args, kwargs)
            self.counts["stable.interpretations_scanned"] += (
                a["lattice"].size ** len(signature_of(a["f"])))

        eq_sig = _signature(eq, "enumerate_equilibrium")

        def eq_after(result, args, kwargs, token):
            a = _bound(eq_sig, args, kwargs)
            sig = a["signature"] if a["signature"] is not None else signature_of(a["f"])
            size = a["lattice"].size
            self.counts["equilibrium.valuations_scanned"] += (
                (size * (size + 1) // 2) ** len(sig))

        # fuzzysm.cli binds its own copies of the entry points; wrapping
        # them too keeps in-process main() calls accounted like the rest.
        for module in (syn, cl):
            self.wrap(module, "parse_formula", "syntax.parse", after=parsed)
            self.wrap(module, "parse_fasp_program", "syntax.parse", after=parsed)
        self.wrap(st, "satisfies", "semantics.satisfies")
        self.wrap(st, "evaluate", "semantics.evaluate")
        self.wrap(st, "value_is_one", "semantics.value_is_one")
        self.wrap(st, "fuzzy_reduct", "semantics.reduct", after=reduct)
        self.count(sem, "op_apply", "algebra.op_apply")
        self.wrap(st, "find_witness", "stable.witness",
                  before=witness_before, after=witness_after)
        self.wrap(eq, "is_n5_model", "equilibrium.n5_model")
        self.wrap(eq, "find_h_violation", "equilibrium.h_violation")
        for module in (st, cl):
            self.wrap(module, "check_stable", "stable.check", after=checked)
            self.wrap(module, "enumerate_stable", "stable.enumerate",
                      before=enum_before, after=enum_after)
        for module in (tf, cl):
            self.wrap(module, "nneg", "transforms.nneg")
        for module in (eq, cl):
            self.wrap(module, "enumerate_equilibrium", "equilibrium.enumerate",
                      after=eq_after)

    def after_op(self):
        """Reset state an exception may have left behind."""
        self._in_enumerate = 0
        del self.stack[:]

    def uninstall(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["span", "parent", "op", "name", "start_s", "end_s"],
                       "spans": self.spans, "ops": self.op_names, "totals": self.totals,
                       "counts": self.counts, "absent": self.absent,
                       "broken": sorted(self.broken)}, fh)


def _bound(signature, args, kwargs) -> dict:
    """A call's arguments by parameter name, defaults filled in."""
    b = signature.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _signature(module, attr):
    fn = getattr(module, attr, None)
    return inspect.signature(fn) if fn is not None else None


def witness_candidates(a: dict, hit, sampled_type, signature_of) -> int:
    """Candidates find_witness visited, from its documented scan order:
    minimized atoms in signature order, values ascending, earlier atoms
    slower; the whole product when nothing is found, the witness's rank
    + 1 when one is.  A sampled hunt counts its sample count, which is
    exact for a miss; no workload's sampled hunt finds a witness."""
    f, i, lattice, strategy = a["f"], a["i"], a["lattice"], a["strategy"]
    if isinstance(strategy, sampled_type):
        return strategy.samples
    mset = set(a["minimized"])
    scan = [x for x in signature_of(f, extra=tuple(i)) if x in mset]
    pools = [lattice.points_up_to(i[x]) for x in scan]
    if hit is None:
        return math.prod(len(p) for p in pools)
    rank = 0
    for x, pool in zip(scan, pools):
        rank = rank * len(pool) + pool.index(hit[x])
    return rank + 1
