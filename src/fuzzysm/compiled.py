"""Formulas compiled once into flat instruction programs.

compile_formula folds a formula once (syntax.fold: post-order, no
recursion) and lays its values out in slots: one per atom of the
signature (in signature order), then one per constant and one per
connective.  Each connective becomes an instruction (slot, fn, left slot,
right slot, family); a negation reads its one argument from both argument
slots.

Values live in one of two domains, chosen from the formula and, when the
caller passes them, the atoms' values:

- integer numerators 0..D over the lattice denominator D, when every
  connective is lattice-closed and every constant and value is a lattice
  point.
  Each such connective maps k/D values to k'/D values, so integer
  arithmetic on the numerators is exact;
- exact Fractions through the registry's own connectives otherwise (the
  product pair, or a constant or an atom's value off the lattice; each
  value meets the lattice test once, and Program.off_lattice keeps the
  slots of the atoms that fail it).

The reduct of f by I, in fuzzy_reduct's simplified form, needs no formula
of its own: it is the same program with every negation frozen to its value
at I and every implication capped at its value at I.  A node that reads
no moving atom, other than through a negation, keeps its value at I, so
the reduct program runs only the instructions that can change and that
something other than a frozen negation reads.

A test "value >= cut" is a tuple of checks, each a slot that must reach
the cut and the instructions that compute it: Program.model_checks for f
itself, Program.reduct_checks for the reduct by I.  At the top value a
t-norm is top only when both arguments are, so each top-level t-norm
conjunct is its own check; below the top the root is the only one.

level_scan is the one scan, over the lattice grid (the model test,
negations live) and over candidates J below a model I (the reduct test).
It walks the product of per-atom pools in itertools.product order: atoms
in signature order, earlier atoms varying more slowly, values ascending.
level_plan assigns each instruction to the scan position of the last
moving atom it reads, and each check to the level of its slot, so a
level's instructions and checks run only when its position takes a new
value; what reads no moving atom runs once, before the scan, through
run, the one uncapped instruction loop (evaluate and least_model use it
too).  A reduct plan puts nothing there, since every instruction and
check of reduct_checks reads a moving atom, so the implication cap lives
in the per-level loop alone.  When a check fails, every candidate that
shares the failing position's prefix fails it too, so the scan moves
that same position on (backtracking, as in Bitner and Reingold,
"Backtrack programming techniques", CACM 1975).
A candidate is accepted exactly when all its checks pass, and skipped
candidates are only ever ones that fail, so the scan accepts the same
candidates in the same order as testing the whole product one candidate
at a time.

first_witness is the witness kernel: it runs level_scan with the reduct
test over a stream of pool products and returns the first hit other
than I.  The exhaustive witness scan is one product, whose pools each
end with I's value; a sampled draw is a product of one-value pools.

least_model proves stability without a scan where the reduct is
Horn-shaped at the top value: every check a moving atom (a fact), or a
residual implication whose varying body is built from t-norms and
t-conorms and whose head is a moving atom or does not vary.  Such a
check holds exactly when body(J) <= J(head), and bodies are monotone, so
the reduct's models in a product of pools are closed under pointwise
min and have a least one: the least fixpoint of "raise the head to the
least pool value at or above the body", started at each pool's minimum
(Dowling and Gallier, "Linear-time algorithms for testing the
satisfiability of propositional Horn formulae", JLP 1984; Lee and Wang,
"Stable Models of Fuzzy Propositional Formulas", JELIA 2014).  I has no
witness in the product exactly when that least model is I.

semantics.evaluate and semantics.fuzzy_reduct stay the reference
definitions; the compiled-evaluation-agreement suite checks this module,
the kernel's reduct test included, against both.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import OPERATORS, Lattice, OpFamily
from .semantics import SignatureError, StrongNegationError
from .syntax import Atom, Const, Formula, StrongNeg, fold

Instruction = tuple  # (slot, fn, left slot, right slot, OpFamily)
Check = tuple  # (slot, instructions): see Program.reduct_checks
Step = tuple  # (instructions, slot or None): see level_plan
Plan = tuple  # one tuple of steps per level: see level_plan
_DONE = object()  # a position's values are used up


def _numerator_fns(d: int) -> dict[str, Callable]:
    """The lattice-closed connectives on numerators over d."""

    def conj_luk(x, y):
        s = x + y - d
        return s if s > 0 else 0

    def disj_luk(x, y):
        s = x + y
        return s if s < d else d

    def impl_luk(x, y):
        s = d - x + y
        return s if s < d else d

    def impl_kleene_dienes(x, y):
        s = d - x
        return s if s > y else y

    return {
        "&l": conj_luk,
        "&m": lambda x, y: x if x < y else y,
        "|l": disj_luk,
        "|m": lambda x, y: x if x > y else y,
        "not_s": lambda x, _: d - x,
        "->r": lambda x, y: d if x <= y else y,
        "->s": impl_kleene_dienes,
        "->l": impl_luk,
    }


def _fraction_fn(token: str) -> Callable:
    op = OPERATORS[token]
    if op.arity == 1:
        fn = op.fn
        return lambda x, _: fn(x)
    return op.fn


@dataclass(frozen=True)
class Program:
    """A formula as instructions over value slots; see the module docstring."""
    signature: tuple[str, ...]
    lattice: Lattice
    integer: bool  # numerators over the lattice denominator, else Fractions
    points: tuple  # the domain value of each lattice point k/D, k = 0..D
    slots: tuple  # initial slot values: constants set, the rest at 0
    code: tuple[Instruction, ...]
    root: int
    residual: frozenset  # the slots of residual implications (->r, ->l)
    off_lattice: frozenset  # the atom slots whose given value is off the lattice

    def value(self, x) -> Fraction:
        """A domain value as the degree it stands for."""
        return Fraction(x, self.lattice.denominator) if self.integer else x

    def level(self, y: Fraction):
        """The least domain value reaching threshold y: exact, since on the
        integer domain every value is a multiple of 1/D."""
        if not self.integer:
            return y
        scaled = y * self.lattice.denominator
        return -(-scaled.numerator // scaled.denominator)

    def domain(self, x: Fraction):
        """A degree as a domain value; on the integer domain x must be a
        lattice point."""
        if not self.integer:
            return x
        return x.numerator * self.lattice.denominator // x.denominator

    def below(self, x) -> tuple:
        """The domain values of the lattice points at or below domain
        value x, ascending."""
        k = x if self.integer else x.numerator * self.lattice.denominator // x.denominator
        return self.points[:k + 1]

    def evaluate(self, values: Sequence) -> list:
        """Every slot's value with atom k at domain value values[k]."""
        vals = list(self.slots)
        vals[:len(values)] = values
        run(self.code, vals)
        return vals

    def model_checks(self, cut) -> tuple[Check, ...]:
        """The model test "value >= cut" as (slot, instructions) pairs: a
        point passes when, running each pair's instructions in turn with
        run, every slot reaches cut.  Below the top value the one pair is
        the whole program and its root; at the top, one pair per top-level
        t-norm conjunct (see reduct_checks), each with every instruction
        beneath it."""
        return self._checks(cut, None)

    def reduct_checks(self, moving: Sequence[int], cut) -> tuple[Check, ...]:
        """The reduct test "value at J >= cut" as (slot, instructions)
        pairs, for J below I on the atom slots in `moving`: J passes when,
        running each pair's instructions in turn with every implication
        capped at its value at I, every slot reaches cut (see
        first_witness).  Only the instructions that read a moving atom and
        that the root reads, neither through a negation, are run: a frozen
        negation reads nothing, and the rest keep their value at I.

        Below the top value the one pair is the whole reduct and its root.
        At the top a t-norm is top only when both arguments are, so the
        reduct splits into its top-level t-norm conjuncts, left to right,
        each with the varying instructions beneath it (post-order keeps a
        subtree's instructions contiguous).  A pair whose slot reads no
        moving atom keeps its value at I and is left out: the test is only
        asked of points I whose value reaches cut, so that slot reaches
        cut too.
        """
        varies = [False] * len(self.slots)
        for k in moving:
            varies[k] = True
        for k, _, a, b, family in self.code:
            if family is not OpFamily.NEGATION and (varies[a] or varies[b]):
                varies[k] = True
        live = [False] * len(self.slots)
        live[self.root] = True
        for k, _, a, b, family in reversed(self.code):
            if live[k] and family is not OpFamily.NEGATION:
                live[a] = live[b] = True
        return self._checks(cut, [v and r for v, r in zip(varies, live)])

    def _checks(self, cut, varies: list[bool] | None) -> tuple[Check, ...]:
        """model_checks (varies None) or reduct_checks (only the slots
        marked in varies)."""
        position = {ins[0]: p for p, ins in enumerate(self.code)}
        first = {}  # instruction slot -> position where its subtree starts
        for p, (k, _, a, b, _) in enumerate(self.code):
            first[k] = min(first.get(a, p), first.get(b, p))
        slots = []
        stack = [self.root]
        while stack:
            k = stack.pop()
            p = position.get(k)
            if (cut == self.points[-1] and p is not None
                    and self.code[p][4] is OpFamily.CONJUNCTION):
                stack.append(self.code[p][3])
                stack.append(self.code[p][2])
            else:
                slots.append(k)
        checks = []
        for k in slots:
            below = () if k not in position else self.code[first[k]:position[k] + 1]
            if varies is None:
                checks.append((k, below))
            elif varies[k]:
                checks.append((k, tuple(ins for ins in below if varies[ins[0]])))
        return tuple(checks)


def level_plan(checks: Sequence[Check], positions: Sequence[int]) -> Plan:
    """The checks' instructions and tests, grouped by the scan level they
    wait for: entry 0 holds what reads no slot in `positions` and runs once
    before the scan; entry p + 1 what reads positions[p] but none after it,
    and runs each time positions[p] takes a new value.

    Each level is a tuple of steps (instructions, slot or None): run the
    instructions, then test the slot against the cut.  Within a level the
    checks keep their order and each is tested right after the
    instructions it needs, so a failing check skips the rest of its level.
    A slot that no instruction of the checks writes (a constant, an atom
    outside `positions`, a frozen negation, a node that keeps its value
    at I) belongs to level 0.
    """
    level = {k: p + 1 for p, k in enumerate(positions)}
    plan: list[list[Step]] = [[] for _ in range(len(positions) + 1)]
    pending: list[list[Instruction]] = [[] for _ in plan]
    for slot, code in checks:
        for ins in code:
            k, _, a, b, _ = ins
            level[k] = max(level.get(a, 0), level.get(b, 0))
            pending[level[k]].append(ins)
        p = level.get(slot, 0)
        plan[p].append((tuple(pending[p]), slot))
        pending[p] = []
    # Instructions of a check tested at a later level still run at their
    # own level, after that level's own checks.
    for p, code in enumerate(pending):
        if code:
            plan[p].append((tuple(code), None))
    return tuple(map(tuple, plan))


def level_scan(plan: Plan, positions: Sequence[int], pools: Sequence[Sequence],
               vals: list, cut, caps: Sequence | None = None) -> Iterator[None]:
    """Scan the candidates, one value of pools[p] for each slot
    positions[p], in itertools.product order (earlier positions vary more
    slowly), and yield once for each that passes every check of `plan`
    (level_plan(checks, positions)), with its values in place in vals.

    vals holds the value of every slot the plan does not write; the scan
    writes the rest.  With caps None the instructions run as run() runs
    them (the model test); otherwise each implication is capped at its
    value in caps (the reduct test), except at level 0, which a reduct
    plan leaves empty.

    When a check of level p + 1 fails, every candidate that shares the
    values of positions 0..p fails it too, so the scan moves position p
    on to its next value."""
    for code, slot in plan[0]:
        run(code, vals)
        if slot is not None and vals[slot] < cut:
            return
    if not positions:
        yield
        return
    impl = None if caps is None else OpFamily.IMPLICATION
    last = len(positions) - 1
    values = [None] * len(positions)  # each position's remaining values
    values[0] = iter(pools[0])
    p = 0
    while True:
        v = next(values[p], _DONE)
        if v is _DONE:
            if p == 0:
                return
            p -= 1
            continue
        vals[positions[p]] = v
        for code, slot in plan[p + 1]:
            for k, fn, a, b, family in code:
                x = fn(vals[a], vals[b])
                if family is impl and x > caps[k]:
                    x = caps[k]
                vals[k] = x
            if slot is not None and vals[slot] < cut:
                break
        else:
            if p == last:
                yield
            else:
                p += 1
                values[p] = iter(pools[p])


def first_witness(plan: Plan, moving: Sequence[int], at_i: Sequence, cut,
                  products: Iterable[Sequence[Sequence]]) -> tuple | None:
    """The witness kernel: scan each product of pools, one pool of domain
    values per slot of `moving`, with level_scan under the reduct test
    plan (level_plan(reduct_checks(moving, cut), moving)), and return the
    first candidate that passes other than I's own values; None when no
    product has one.  at_i is evaluate() at I, whose root must reach
    cut.  A product that holds I's values must hold them last, as the
    exhaustive one (each pool ends with I's value) and a one-point draw
    do: a hit equal to I ends its product."""
    work = list(at_i)
    for pools in products:
        for _ in level_scan(plan, moving, pools, work, cut, caps=at_i):
            # Compared slot by slot: most hits are I itself, so the
            # witness tuple is built only for one that is not.
            for k in moving:
                if work[k] != at_i[k]:
                    return tuple([work[k] for k in moving])
            break
    return None


def least_model(prog: Program, checks: Sequence[Check], moving: Sequence[int],
                pools: Sequence[Sequence], at_i: Sequence) -> tuple | None:
    """The least J in the product of pools, one ascending pool of domain
    values per slot of `moving`, that passes `checks`
    (prog.reduct_checks(moving, top), the reduct test at the top value),
    as its values on the moving slots; None when some check is not
    Horn-shaped (see the module docstring).  at_i is evaluate() at I,
    whose root must be top, and each pool must hold I's value.

    A check with a head that does not vary holds at every J below I and
    is left out.  A rule's body instructions run again only when a moving
    slot they read rises."""
    position = {k: p for p, k in enumerate(moving)}
    monotone = (OpFamily.CONJUNCTION, OpFamily.DISJUNCTION)
    rules = []  # (body instructions, body slot or None for a fact, head position)
    for slot, code in checks:
        if slot in position:
            rules.append(((), None, position[slot]))
            continue
        if slot not in prog.residual:
            return None
        _, _, body, head, _ = code[-1]
        if head not in position:
            if any(ins[0] == head for ins in code):
                return None
            continue
        if any(ins[4] not in monotone for ins in code[:-1]):
            return None
        rules.append((code[:-1], body, position[head]))
    readers: list[list[int]] = [[] for _ in moving]
    for r, (code, body, _) in enumerate(rules):
        read = {body}.union(*((a, b) for _, _, a, b, _ in code))
        for k in read & position.keys():
            readers[position[k]].append(r)
    vals = list(at_i)
    for k, pool in zip(moving, pools):
        vals[k] = pool[0]
    top = prog.points[-1]
    queued = [True] * len(rules)
    queue = deque(range(len(rules)))
    while queue:
        r = queue.popleft()
        queued[r] = False
        code, body, h = rules[r]
        run(code, vals)
        x = top if body is None else vals[body]
        k = moving[h]
        if x > vals[k]:
            pool = pools[h]
            vals[k] = pool[bisect_left(pool, x)]
            for s in readers[h]:
                if not queued[s]:
                    queued[s] = True
                    queue.append(s)
    return tuple([vals[k] for k in moving])


def run(code: Sequence[Instruction], vals: list) -> None:
    """Execute instructions in place over the slot values."""
    for k, fn, a, b, _ in code:
        vals[k] = fn(vals[a], vals[b])


def compile_formula(
    f: Formula, signature: Sequence[str], lattice: Lattice,
    values: Sequence[Fraction] = (),
) -> Program:
    """Compile f over the atoms of `signature` (slot k holds signature[k]).
    `values` are the degrees the atoms will take, in signature order, when
    the caller knows them: like a constant, one off the lattice keeps the
    Fraction domain, and its slot goes in Program.off_lattice."""
    slot_of = {a: k for k, a in enumerate(signature)}
    constants: list[tuple[int, Fraction]] = []
    ops: list[tuple[int, str, int, int]] = []
    free = itertools.count(len(signature))  # the next unused slot

    def leaf(x: Formula) -> int:
        if isinstance(x, Atom):
            try:
                return slot_of[x.name]
            except KeyError:
                raise SignatureError(f"atom {x.name!r} is not interpreted") from None
        if isinstance(x, Const):
            constants.append((next(free), x.value))
            return constants[-1][0]
        if isinstance(x, StrongNeg):
            raise StrongNegationError()
        raise TypeError(f"not a formula: {x!r}")

    def node(x: Formula, a: int, b: int | None = None) -> int:
        ops.append((next(free), x.op, a, a if b is None else b))
        return ops[-1][0]

    root = fold(f, leaf, node)
    d = lattice.denominator
    off_lattice = frozenset(k for k, v in enumerate(values) if v not in lattice)
    integer = (not off_lattice
               and all(OPERATORS[op].lattice_closed for _, op, _, _ in ops)
               and all(c in lattice for _, c in constants))
    if integer:
        fns = _numerator_fns(d)
        points: tuple = tuple(range(d + 1))
    else:
        fns = {op: _fraction_fn(op) for _, op, _, _ in ops}
        points = tuple(lattice.points())
    slots = [points[0]] * next(free)
    for k, c in constants:
        slots[k] = c.numerator * d // c.denominator if integer else c
    code = tuple((k, fns[op], a, b, OPERATORS[op].family) for k, op, a, b in ops)
    residual = frozenset(k for k, op, _, _ in ops if OPERATORS[op].residual)
    return Program(tuple(signature), lattice, integer, points, tuple(slots),
                   code, root, residual, off_lattice)
