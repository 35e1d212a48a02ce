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
  product pair, or a constant or an atom's value off the lattice).

The reduct of f by I, in fuzzy_reduct's simplified form, needs no formula
of its own: it is the same program with every negation frozen to its value
at I and every implication capped at its value at I.  A node that reads
no moving atom, other than through a negation, keeps its value at I, so
the reduct program runs only the instructions that can change.

first_witness is the witness kernel of stable.py: it runs the reduct by I
on each candidate J and keeps the first that reaches the threshold.  At
the top value the test stops at the first top-level t-norm conjunct below
the top (Program.reduct_checks).

semantics.evaluate and semantics.fuzzy_reduct stay the reference
definitions; the compiled-evaluation-agreement suite checks this module,
the kernel's reduct test included, against both.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .algebra import OPERATORS, Lattice, OpFamily
from .semantics import SignatureError, StrongNegationError
from .syntax import Atom, Const, Formula, StrongNeg, fold

Instruction = tuple  # (slot, fn, left slot, right slot, OpFamily)
Check = tuple  # (slot, instructions): see Program.reduct_checks


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
        return int(x * self.lattice.denominator) if self.integer else x

    def below(self, x) -> tuple:
        """The domain values of the lattice points at or below domain
        value x, ascending."""
        k = x if self.integer else int(x * self.lattice.denominator)
        return self.points[:k + 1]

    def evaluate(self, values: Sequence) -> list:
        """Every slot's value with atom k at domain value values[k]."""
        vals = list(self.slots)
        vals[:len(values)] = values
        run(self.code, vals)
        return vals

    def reduct_checks(self, moving: Sequence[int], cut) -> tuple[Check, ...]:
        """The reduct test "value at J >= cut" as (slot, instructions)
        pairs, for J below I on the atom slots in `moving`: J passes when,
        running each pair's instructions in turn with run_reduct, every
        slot reaches cut (see first_witness).  Only instructions that read
        a moving atom, other than through a negation, are run; the rest
        keep their value at I.

        Below the top value the one pair is the whole reduct and its root.
        At the top a t-norm is top only when both arguments are, so the
        reduct splits into its top-level t-norm conjuncts, left to right,
        each with the varying instructions beneath it (post-order keeps a
        subtree's instructions contiguous).  A conjunct that reads no
        moving atom keeps its value at I and is left out: the test is only
        asked of points I whose value reaches cut, so that value is top.
        """
        varies = [False] * len(self.slots)
        for k in moving:
            varies[k] = True
        for k, _, a, b, family in self.code:
            if family is not OpFamily.NEGATION and (varies[a] or varies[b]):
                varies[k] = True
        code = tuple(ins for ins in self.code if varies[ins[0]])
        if cut != self.points[-1]:
            return ((self.root, code),)
        position = {ins[0]: p for p, ins in enumerate(self.code)}
        first = {}  # instruction slot -> position where its subtree starts
        for p, (k, _, a, b, _) in enumerate(self.code):
            first[k] = min(first.get(a, p), first.get(b, p))
        checks = []
        stack = [self.root]
        while stack:
            k = stack.pop()
            p = position.get(k)
            if p is not None and self.code[p][4] is OpFamily.CONJUNCTION:
                stack.append(self.code[p][3])
                stack.append(self.code[p][2])
            elif varies[k]:
                below = () if p is None else self.code[first[k]:p + 1]
                checks.append((k, tuple(ins for ins in below if varies[ins[0]])))
        return tuple(checks)


def first_witness(checks: Sequence[Check], moving: Sequence[int], at_i: Sequence,
                  cut, candidates: Iterable[tuple]) -> tuple | None:
    """The witness kernel: the first candidate, a tuple of domain values
    for the `moving` atom slots other than I's own, whose J passes the
    reduct test `checks` (reduct_checks(moving, cut)); None when no
    candidate does.  at_i is evaluate() at I, whose root must reach cut."""
    work = list(at_i)
    base = tuple(at_i[k] for k in moving)
    for values in candidates:
        if values == base:
            continue
        for k, v in zip(moving, values):
            work[k] = v
        for slot, code in checks:
            run_reduct(code, work, at_i)
            if work[slot] < cut:
                break
        else:
            return values
    return None


def run(code: Sequence[Instruction], vals: list) -> None:
    """Execute instructions in place over the slot values."""
    for k, fn, a, b, _ in code:
        vals[k] = fn(vals[a], vals[b])


def run_reduct(code: Sequence[Instruction], vals: list, caps: Sequence) -> None:
    """run(), with each implication capped at its value in caps."""
    impl = OpFamily.IMPLICATION
    for k, fn, a, b, family in code:
        x = fn(vals[a], vals[b])
        if family is impl and x > caps[k]:
            x = caps[k]
        vals[k] = x


def compile_formula(
    f: Formula, signature: Sequence[str], lattice: Lattice,
    values: Iterable[Fraction] = (),
) -> Program:
    """Compile f over the atoms of `signature` (slot k holds signature[k]).
    `values` are the degrees the atoms will take, when the caller knows
    them: like a constant, one off the lattice keeps the Fraction domain."""
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
            raise StrongNegationError(
                "strong negation has no direct evaluation; "
                "eliminate it first with transforms.nneg")
        raise TypeError(f"not a formula: {x!r}")

    def node(x: Formula, a: int, b: int | None = None) -> int:
        ops.append((next(free), x.op, a, a if b is None else b))
        return ops[-1][0]

    root = fold(f, leaf, node)
    d = lattice.denominator
    integer = (all(OPERATORS[op].lattice_closed for _, op, _, _ in ops)
               and all(c in lattice for _, c in constants)
               and all(v in lattice for v in values))
    if integer:
        fns = _numerator_fns(d)
        points: tuple = tuple(range(d + 1))
    else:
        fns = {op: _fraction_fn(op) for _, op, _, _ in ops}
        points = tuple(lattice.points())
    slots = [points[0]] * next(free)
    for k, c in constants:
        slots[k] = int(c * d) if integer else c
    code = tuple((k, fns[op], a, b, OPERATORS[op].family) for k, op, a, b in ops)
    return Program(tuple(signature), lattice, integer, points, tuple(slots),
                   code, root)
