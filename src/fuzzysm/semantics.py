"""Evaluation, satisfaction, and reduct construction.

An interpretation assigns an exact rational degree to every atom of a
signature.  Evaluation is the homomorphic extension of that assignment
through the connective registry; satisfaction at threshold y means the
formula evaluates to at least y (plain satisfaction is y = 1, which
value_is_one tests conjunct by conjunct through the top-level t-norms).

Two reducts are provided.  The fuzzy reduct freezes every negated
subformula to its current value and, for implication nodes, caps the
rebuilt subformula at its current value with a minimum-conjunction
wrapper; with simplified=False the wrapper is kept on conjunctions and
disjunctions as well, which never changes any evaluation.  The classical
reduct is the Boolean analogue used by the crisp cross-check oracle.  Each
is one pass of syntax.fold in which a node yields its value and reduct.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .algebra import (ONE, ZERO, check_truth, format_truth, op_apply, parse_truth,
                      read_json)
from .syntax import Atom, Bin, Const, Formula, Neg, StrongNeg, fold, walk


class SignatureError(ValueError):
    """An atom was used outside the interpretation's signature."""


class StrongNegationError(ValueError):
    """Strong negation reached an operation that requires it eliminated.
    With no message, the refusal of every evaluating route."""

    def __init__(self, message: str = (
            "strong negation has no direct evaluation; "
            "eliminate it first with transforms.nneg")) -> None:
        super().__init__(message)


class Interpretation(Mapping[str, Fraction]):
    """Immutable total map from atom names to degrees in [0, 1]."""

    __slots__ = ("_map", "_hash")

    def __init__(self, assignment: Mapping[str, object] | Iterable[tuple[str, object]]):
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        # One pass; a name given twice keeps its last value, as dict() does.
        self._map: dict[str, Fraction] = {
            str(name): check_truth(value) for name, value in items}
        self._hash: int | None = None

    def __getitem__(self, name: str) -> Fraction:
        try:
            return self._map[name]
        except KeyError:
            raise SignatureError(f"atom {name!r} is not interpreted") from None

    # Mapping's own `in` and get() catch only KeyError, which __getitem__
    # does not raise.
    def __contains__(self, name: object) -> bool:
        return name in self._map

    def get(self, name: str, default=None):
        return self._map.get(name, default)

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def atoms(self) -> tuple[str, ...]:
        return tuple(self._map)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Interpretation):
            return self._map == other._map
        if isinstance(other, Mapping):
            return dict(self._map) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def updated(self, changes: Mapping[str, object]) -> "Interpretation":
        merged = dict(self._map)
        for name, value in changes.items():
            merged[name] = value
        return Interpretation(merged)

    def __repr__(self) -> str:
        return f"Interpretation({format_interpretation(self)!r})"


@dataclass(frozen=True)
class BoolInterpretation:
    """A crisp interpretation: the set of atoms that hold."""
    signature: tuple[str, ...]
    true_atoms: frozenset[str]

    def __post_init__(self) -> None:
        extra = self.true_atoms - set(self.signature)
        if extra:
            raise SignatureError(
                f"true atoms outside the signature: {sorted(extra)}")


def parse_interpretation(text: str) -> Interpretation:
    """Read 'p=0.3, q=7/10' or a JSON object {"p": "0.3", "q": 0.7}.

    JSON goes through algebra.read_json, so decimal literals stay exact.
    An atom named twice is an error in both forms.
    """
    s = text.strip()
    if s.startswith("{"):
        return Interpretation(read_json(s))
    pairs: dict[str, Fraction] = {}
    if s:
        for chunk in re.split(r"[,\n]", s):
            if not chunk.strip():
                continue
            if "=" not in chunk:
                raise ValueError(f"expected 'atom=value', got {chunk.strip()!r}")
            name, _, value = chunk.partition("=")
            name = name.strip()
            if name in pairs:
                raise ValueError(f"atom {name!r} appears twice")
            pairs[name] = parse_truth(value)
    return Interpretation(pairs)


def format_interpretation(i: Mapping[str, Fraction], decimal: bool = True) -> str:
    return ", ".join(
        f"{name}={format_truth(value, decimal=decimal)}" for name, value in i.items())


def interpretation_to_json(i: Mapping[str, Fraction]) -> dict[str, str]:
    return {name: format_truth(value) for name, value in i.items()}


def evaluate(f: Formula, i: Mapping[str, Fraction]) -> Fraction:
    """The degree of f under i."""
    if isinstance(f, Atom):
        try:
            return i[f.name]
        except KeyError:
            raise SignatureError(f"atom {f.name!r} is not interpreted") from None
    if isinstance(f, Bin):
        return op_apply(f.op, evaluate(f.left, i), evaluate(f.right, i))
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Neg):
        return op_apply(f.op, evaluate(f.body, i))
    if isinstance(f, StrongNeg):
        raise StrongNegationError()
    raise TypeError(f"not a formula: {f!r}")


def value_is_one(f: Formula, i: Mapping[str, Fraction]) -> bool:
    """Exact test evaluate(f, i) == 1, short-circuiting through t-norms.

    A t-norm is 1 only when both arguments are (Hajek 1998); every other
    node is one evaluate, so no subformula is evaluated twice and only a
    t-norm whose left argument is below 1 skips evaluate's errors.
    """
    if isinstance(f, Bin) and f.op[0] == "&":
        return value_is_one(f.left, i) and value_is_one(f.right, i)
    return evaluate(f, i) == ONE


def satisfies(f: Formula, i: Mapping[str, Fraction], threshold: Fraction = ONE) -> bool:
    """Does f reach the threshold under i?  threshold=1 is plain modelhood."""
    y = check_truth(threshold)
    if y == ONE:
        return value_is_one(f, i)
    return evaluate(f, i) >= y


def fuzzy_reduct(
    f: Formula,
    i: Mapping[str, Fraction],
    simplified: bool = True,
) -> Formula:
    """Freeze negations to their current values; cap implications.

    Atoms and constants stay put.  A negation node becomes the constant it
    currently evaluates to.  A binary node is rebuilt from the reducts of
    its children and capped at its current value by a minimum-conjunction
    wrapper; in simplified form the wrapper is dropped on conjunction and
    disjunction nodes (their monotone recursion makes it redundant), and
    everywhere the cap value 1 is dropped because 1 is the t-norm unit.
    Every atom of f must be interpreted: SignatureError otherwise.
    """
    return _reduct(f, i, simplified, "&m")


def _reduct(f: Formula, i: Mapping[str, Fraction], simplified: bool, wrapper: str) -> Formula:
    """One bottom-up pass: each node yields its value under i with its reduct."""

    def node(x: Formula, *parts: tuple[Fraction, Formula]) -> tuple[Fraction, Formula]:
        value = op_apply(x.op, *(v for v, _ in parts))
        if isinstance(x, Neg):
            return value, Const(value)
        rebuilt = Bin(x.op, parts[0][1], parts[1][1])
        if (simplified and x.op[0] in "&|") or value == ONE:
            return value, rebuilt
        return value, Bin(wrapper, rebuilt, Const(value))

    return fold(f, lambda x: (evaluate(x, i), x), node)[1]


def _crisp_map(x: BoolInterpretation) -> dict[str, Fraction]:
    return {a: ONE if a in x.true_atoms else ZERO for a in x.signature}


def check_boolean_shaped(f: Formula) -> None:
    """Reject formulas that are not two-valued material: constants other
    than 0/1 or strong negation."""
    for node in walk(f):
        if isinstance(node, Const) and node.value not in (ZERO, ONE):
            raise ValueError(
                f"constant {format_truth(node.value)} is not Boolean")
        if isinstance(node, StrongNeg):
            raise StrongNegationError(
                "strong negation is not part of the Boolean fragment")


def classical_reduct(f: Formula, x: BoolInterpretation) -> Formula:
    """Boolean reduct: unsatisfied subformulas collapse to 0, satisfied
    negations collapse accordingly, satisfied binary nodes are rebuilt."""
    check_boolean_shaped(f)
    crisp = _crisp_map(x)
    false, true = Const(ZERO), Const(ONE)

    def leaf(y: Formula) -> tuple[Fraction, Formula]:
        value = evaluate(y, crisp)
        return value, y if value == ONE else false

    def node(y: Formula, *parts: tuple[Fraction, Formula]) -> tuple[Fraction, Formula]:
        value = op_apply(y.op, *(v for v, _ in parts))
        if isinstance(y, Neg):
            return value, false if parts[0][0] == ONE else true
        return value, Bin(y.op, parts[0][1], parts[1][1]) if value == ONE else false

    return fold(f, leaf, node)[1]


def bool_satisfies(f: Formula, x: BoolInterpretation) -> bool:
    """Two-valued satisfaction of a Boolean-shaped formula."""
    check_boolean_shaped(f)
    return evaluate(f, _crisp_map(x)) == ONE
