"""Formulas compiled once into flat instruction programs.

compile_formula folds a formula once (syntax.fold: post-order, no
recursion) and lays its values out in slots: one per atom of the
signature (in signature order), then one per constant and one per
connective.  Each connective becomes an instruction (slot, fn, left slot,
right slot, family), whose value is fn[left][right]; a negation reads its
one argument from both argument slots.

Values live in one of two domains, chosen from the formula and, when the
caller passes them, the atoms' values:

- integer numerators 0..D over the lattice denominator D, when every
  connective is lattice-closed and every constant and value is a lattice
  point.
  Each such connective maps k/D values to k'/D values, so integer
  arithmetic on the numerators is exact.  Up to a fixed D
  (_TABLE_BOUND) each connective is a (D + 1) x (D + 1) table of
  numerators, built once per connective and D and shared by every program
  over D, so an instruction is two lookups, not a call;
- exact Fractions through the registry's own connectives otherwise (the
  product pair, or a constant or an atom's value off the lattice; each
  value meets the lattice test once, and Program.off_lattice keeps the
  slots of the atoms that fail it).

A connective without a table (on Fractions, or on numerators over a D
above the bound) is its function wrapped to be read as fn[x][y] too, so
run and level_scan have one instruction loop for every domain.

The reduct of f by I, in fuzzy_reduct's simplified form, needs no formula
of its own: it is the same program with every negation frozen to its value
at I and every implication capped at its value at I.  A node that reads
no moving atom, other than through a negation, keeps its value at I, so
the reduct program runs only the instructions that can change and that
something other than a frozen negation reads.

A test "value >= cut" is a tuple of checks, each a slot that must reach
the cut and the instructions that compute it: Program.model_checks for f
itself, Program.reduct_checks for the reduct by I.  Each top-level t-norm
conjunct is its own check at every cut, since a t-norm is at most the
minimum of its arguments (Hajek, "Metamathematics of Fuzzy Logic", 1998):
a conjunct below the cut sinks the whole.  At the top value a t-norm is
top exactly when both arguments are, so the conjuncts decide; below the
top they are only necessary, and a last check runs the t-norms above them
and tests the root.

level_scan is the one scan, over the lattice grid (the model test,
negations live) and over candidates J below a model I (the reduct test).
It is a plain function, not a generator: it calls back at each candidate
that passes and returns at the first that the callback accepts, or at
the first that passes when there is no callback.  So a witness scan
below a model is one call, made from the grid scan's callback, with no
generator to build.
It walks the product of per-atom pools in itertools.product order: atoms
in signature order, earlier atoms varying more slowly, values ascending.
level_plan assigns each instruction to the scan position of the last
moving atom it reads, and each check to the level of its slot, so a
level's instructions and checks run only when its position takes a new
value; what reads no moving atom runs once, before the scan.  Every
level runs its instructions as run does: the scan has one instruction
loop and no semantics of its own.  When a check fails, every candidate
that shares the failing position's prefix fails it too, so the scan
moves that same position on (backtracking, as in Bitner and Reingold,
"Backtrack programming techniques", CACM 1975).
A candidate is accepted exactly when all its checks pass, and skipped
candidates are only ever ones that fail, so the scan accepts the same
candidates in the same order as testing the whole product one candidate
at a time.

The implication cap is an instruction too.  Program.capped copies
reduct_checks onto fresh slots past the program's own, so that each
node's value at I stays in its slot, and follows each implication k with
"&m" against I's slot k, since min(x, I_k) is the cap.  It alone knows
that layout: it also returns I's slot list extended over the fresh slots,
the list a scan of the copy runs in.

    x'      = fn[a'][b']         (a', b': a copy, a moving slot, or I's slot)
    x''     = &m[x'][I_k]        (after an implication k)

In bottom mode every moving atom reads one more fresh slot, which holds
points[0]: the copy then tests the bottom candidate, the first of every
witness scan below a grid point, at whatever point its inputs hold.  The
grid scan of enumerate_stable runs it as checks with no test, and its
callback reads at each model whether that candidate is the witness;
where it is, no witness scan starts.

witness_in holds the witness rule and is the witness search's one
kernel entry: it runs level_scan with the capped reduct test over one
product of pools, which its first hit ends, and tells whether that hit
is other than I.  The exhaustive witness scan is one product, whose
pools each end with I's value; a sampled draw is a product of one-value
pools, and find_witness calls witness_in once per draw.

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

import functools
import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import OPERATORS, Lattice, OpFamily
from .semantics import SignatureError, StrongNegationError
from .syntax import Atom, Const, Formula, StrongNeg, fold

Instruction = tuple  # (slot, fn, left slot, right slot, OpFamily); fn[x][y]
Check = tuple  # (slot, instructions): see Program.reduct_checks
Step = tuple  # (instructions, slot or None): see level_plan
Plan = tuple  # one tuple of steps per level: see level_plan
_DONE = object()  # a position's values are used up
# The largest denominator whose connectives become tables.  A table over
# D holds (D + 1)^2 numerators and takes about 130 ns each to build, once
# per connective and D: 0.55 ms and 38 KB at D = 64, but 8 ms and 0.55 MB
# at D = 256.  The tables of all eight connectives at every D up to 64
# hold about 7 MB.
_TABLE_BOUND = 64


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


@functools.cache
def _table(token: str, d: int) -> tuple[tuple[int, ...], ...]:
    """The lattice-closed connective `token` on numerators over d as a
    table: _table(token, d)[x][y] is its value at x/D and y/D, times D."""
    fn = _numerator_fns(d)[token]
    r = range(d + 1)
    return tuple([tuple([fn(x, y) for y in r]) for x in r])


class _Rows:
    """A connective fn(x, y) read as rows[x][y], like a table: for a domain
    too large to tabulate, or not finite."""
    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __getitem__(self, x) -> _Row:
        return _Row(self.fn, x)


class _Row:
    __slots__ = ("fn", "x")

    def __init__(self, fn: Callable, x) -> None:
        self.fn = fn
        self.x = x

    def __getitem__(self, y):
        return self.fn(self.x, y)


def _fraction_fn(token: str) -> Callable:
    op = OPERATORS[token]
    if op.arity == 1:
        fn = op.fn
        return lambda x, _: fn(x)
    return op.fn


def _connective(token: str, integer: bool, d: int):
    """The connective `token` read as fn[x][y] on a domain: a table on
    numerators over d up to _TABLE_BOUND, else its function in _Rows."""
    if not integer:
        return _Rows(_fraction_fn(token))
    if d <= _TABLE_BOUND:
        return _table(token, d)
    return _Rows(_numerator_fns(d)[token])


@dataclass(frozen=True)
class Program:
    """A formula as instructions over value slots; see the module docstring."""
    signature: tuple[str, ...]
    lattice: Lattice
    integer: bool  # numerators over the lattice denominator, else Fractions
    points: Sequence  # each lattice point k/D's domain value: range(D + 1) or Fractions
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

    def below(self, x) -> Sequence:
        """The domain values of the lattice points at or below domain
        value x, ascending: a range on the integer domain, so a pool takes
        no memory per point."""
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
        run, every slot reaches cut: one pair per top-level t-norm
        conjunct, each with every instruction beneath it, and below the top
        value a last pair for the root (see reduct_checks)."""
        return self._checks(cut, None)

    def reduct_checks(self, moving: Sequence[int], cut) -> tuple[Check, ...]:
        """The reduct test "value at J >= cut" as (slot, instructions)
        pairs, for J below I on the atom slots in `moving`: J passes when,
        running each pair's instructions in turn with every implication
        capped at its value at I (Program.capped writes the caps), every
        slot reaches cut.  Only the instructions that read a moving atom and
        that the root reads, neither through a negation, are run: a frozen
        negation reads nothing, and the rest keep their value at I.

        The reduct splits into its top-level t-norm conjuncts, left to
        right, each with the varying instructions beneath it (post-order
        keeps a subtree's instructions contiguous): a t-norm is at most
        the minimum of its arguments, so each conjunct must reach cut.  At
        the top value a t-norm is top only when both arguments are, so
        that is the whole test; below it a last pair runs the t-norms above
        the conjuncts and tests the root.  A pair whose slot reads no
        moving atom keeps its value at I and is left out: the test is only
        asked of points I whose value reaches cut, so that slot, the root
        or a conjunct at least as large, reaches cut too.
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

    def capped(self, checks: Sequence[Check], moving: Sequence[int],
               vals: Sequence, bottom: bool = False) -> tuple[tuple[Check, ...], list]:
        """The reduct test `checks` (reduct_checks(moving, cut)) with each
        implication k followed by "&m" against I's slot k, its cap:
        (checks, slots).  The copies write fresh slots past the program's
        own and read a copied input from its copy, any other from I's own
        slot; `slots` is vals, I's slot values, extended with points[0]
        over every fresh slot, so a scan in it runs the reduct test.  A
        moving atom reads its own slot or, with `bottom`, the first fresh
        slot, which holds points[0]: the checks then test the bottom
        candidate at the point the slots hold."""
        free = len(self.slots)
        copy = dict.fromkeys(moving, free) if bottom else {}
        free += bottom
        cap = _connective("&m", self.integer, self.lattice.denominator)
        out = []
        for slot, check in checks:
            code = []
            for k, fn, a, b, family in check:
                code.append((free, fn, copy.get(a, a), copy.get(b, b), family))
                free += 1
                if family is OpFamily.IMPLICATION:
                    code.append((free, cap, free - 1, k, OpFamily.CONJUNCTION))
                    free += 1
                copy[k] = free - 1
            out.append((copy.get(slot, slot), tuple(code)))
        return tuple(out), list(vals) + [self.points[0]] * (free - len(vals))

    def _checks(self, cut, varies: list[bool] | None) -> tuple[Check, ...]:
        """model_checks (varies None) or reduct_checks (only the slots
        marked in varies)."""
        position = {ins[0]: p for p, ins in enumerate(self.code)}
        first = {}  # instruction slot -> position where its subtree starts
        for p, (k, _, a, b, _) in enumerate(self.code):
            first[k] = min(first.get(a, p), first.get(b, p))
        slots = []
        spine = []  # the positions of the top-level t-norms
        stack = [self.root]
        while stack:
            k = stack.pop()
            p = position.get(k)
            if p is not None and self.code[p][4] is OpFamily.CONJUNCTION:
                spine.append(p)
                stack.append(self.code[p][3])
                stack.append(self.code[p][2])
            else:
                slots.append(k)
        pairs = [(k, () if k not in position else self.code[first[k]:position[k] + 1])
                 for k in slots]
        if spine and cut != self.points[-1]:
            pairs.append((self.root, tuple(self.code[p] for p in sorted(spine))))
        if varies is None:
            return tuple(pairs)
        return tuple((k, tuple(ins for ins in code if varies[ins[0]]))
                     for k, code in pairs if varies[k])


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
    at I) belongs to level 0.  A check whose slot is None tests nothing:
    each of its instructions runs at its own level, after that level's
    steps of the checks before it.
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
               vals: list, cut, accept: Callable[[], bool] | None = None) -> bool:
    """Scan the candidates, one value of pools[p] for each slot
    positions[p], in itertools.product order (earlier positions vary more
    slowly), and call accept() at each that passes every check of `plan`
    (level_plan(checks, positions)), with its values in place in vals.
    Return True as soon as accept() does, with that candidate's values
    left in vals, and False when the candidates run out.  With accept
    None the first candidate that passes ends the scan.

    vals holds the value of every slot the plan does not write; the scan
    writes the rest, running each instruction as run() does.  The reduct
    test is a plan of Program.capped checks, whose caps are instructions.

    When a check of level p + 1 fails, every candidate that shares the
    values of positions 0..p fails it too, so the scan moves position p
    on to its next value."""
    for code, slot in plan[0]:
        run(code, vals)
        if slot is not None and vals[slot] < cut:
            return False
    if not positions:
        return accept is None or accept()
    last = len(positions) - 1
    values = [None] * len(positions)  # each position's remaining values
    values[0] = iter(pools[0])
    p = 0
    while True:
        v = next(values[p], _DONE)
        if v is _DONE:
            if p == 0:
                return False
            p -= 1
            continue
        vals[positions[p]] = v
        for code, slot in plan[p + 1]:
            for k, fn, a, b, _ in code:
                vals[k] = fn[vals[a]][vals[b]]
            if slot is not None and vals[slot] < cut:
                break
        else:
            if p < last:
                p += 1
                values[p] = iter(pools[p])
            elif accept is None or accept():
                return True


def witness_in(plan: Plan, moving: Sequence[int], pools: Sequence[Sequence],
               work: list, cut, at_i: Sequence) -> bool:
    """Whether the first candidate of a product of pools (one pool of
    domain values per slot of `moving`) that passes the reduct test plan
    (level_plan of the checks of Program.capped(reduct_checks(moving,
    cut), moving, at_i)) is a witness: other than I's own values.  at_i
    is evaluate() at I, whose root must reach cut.  The scan writes into
    work, the slot list Program.capped returns with it (the moving slots
    and the copy's may hold an earlier scan's values), and leaves the hit
    there.  A product that holds I's values must hold them last, as the
    exhaustive one (each pool ends with I's value) and a one-point draw
    do: a hit equal to I ends its product."""
    if level_scan(plan, moving, pools, work, cut):
        for k in moving:
            if work[k] != at_i[k]:
                return True
    return False


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
        vals[k] = fn[vals[a]][vals[b]]


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
    tokens = {op for _, op, _, _ in ops}
    integer = (not off_lattice
               and all(OPERATORS[op].lattice_closed for op in tokens)
               and all(c in lattice for _, c in constants))
    points = range(d + 1) if integer else tuple(lattice.points())
    fns = {op: _connective(op, integer, d) for op in tokens}
    slots = [points[0]] * next(free)
    for k, c in constants:
        slots[k] = c.numerator * d // c.denominator if integer else c
    code = tuple((k, fns[op], a, b, OPERATORS[op].family) for k, op, a, b in ops)
    residual = frozenset(k for k, op, _, _ in ops if OPERATORS[op].residual)
    return Program(tuple(signature), lattice, integer, points, tuple(slots),
                   code, root, residual, off_lattice)
