"""Signature-level rewrites.

nneg eliminates strong negation by giving every atom a complement atom and
constraining the pair to sum to at most 1.  boolean_embed maps a
two-valued formula onto a fuzzy operator selection.  choice builds the
excluded-middle tautology that frees atoms from minimization.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import ONE, ZERO, OpFamily, get_operator
from .semantics import BoolInterpretation, Interpretation, check_boolean_shaped
from .syntax import Atom, Bin, Formula, Neg, StrongNeg, atoms, conjoin, fold


@dataclass(frozen=True)
class NnegResult:
    formula: Formula
    complements: dict[str, str]  # original atom -> complement atom
    signature: tuple[str, ...]  # originals first, complements appended

    def __iter__(self):
        return iter((self.formula, self.complements, self.signature))


def complement_names(signature: tuple[str, ...]) -> dict[str, str]:
    """'n' + atom, suffixed deterministically on collision."""
    taken = set(signature)
    names: dict[str, str] = {}
    for a in signature:
        name = f"n{a}"
        k = 1
        while name in taken:
            k += 1
            name = f"n{a}_{k}"
        taken.add(name)
        names[a] = name
    return names


def nneg(f: Formula) -> NnegResult:
    """Replace '~a' by the complement atom of a, then conjoin, for every
    atom of the original signature, the constraint that atom and
    complement do not sum above 1."""
    sig = atoms(f)
    names = complement_names(sig)

    def leaf(x: Formula) -> Formula:
        return Atom(names[x.name]) if isinstance(x, StrongNeg) else x

    def node(x: Formula, *parts: Formula) -> Formula:
        return Neg(x.op, *parts) if isinstance(x, Neg) else Bin(x.op, *parts)

    guards = [
        Neg("not_s", Bin("&l", Atom(a), Atom(names[a]))) for a in sig
    ]
    formula = conjoin("&m", [fold(f, leaf, node)] + guards)
    extended = sig + tuple(names[a] for a in sig)
    return NnegResult(formula, names, extended)


@dataclass(frozen=True)
class OpSelection:
    """One fuzzy operator per two-valued connective."""
    neg: str = "not_s"
    conj: str = "&m"
    disj: str = "|m"
    impl: str = "->s"

    def __post_init__(self) -> None:
        wanted = (
            (self.neg, OpFamily.NEGATION),
            (self.conj, OpFamily.CONJUNCTION),
            (self.disj, OpFamily.DISJUNCTION),
            (self.impl, OpFamily.IMPLICATION),
        )
        for token, family in wanted:
            if get_operator(token).family is not family:
                raise ValueError(f"{token!r} is not a {family.value} operator")

    def for_family(self, family: OpFamily) -> str:
        return {
            OpFamily.NEGATION: self.neg,
            OpFamily.CONJUNCTION: self.conj,
            OpFamily.DISJUNCTION: self.disj,
            OpFamily.IMPLICATION: self.impl,
        }[family]


CLASSICAL_SELECTION = OpSelection()


def boolean_embed(f: Formula, selection: OpSelection = CLASSICAL_SELECTION) -> Formula:
    """Re-draw every connective of a Boolean-shaped formula from the
    selection; constants 0 and 1 stay put."""
    check_boolean_shaped(f)

    def node(x: Formula, *parts: Formula) -> Formula:
        if isinstance(x, Neg):
            return Neg(selection.neg, *parts)
        return Bin(selection.for_family(get_operator(x.op).family), *parts)

    return fold(f, lambda x: x, node)


def crisp_interp(x: BoolInterpretation) -> Interpretation:
    """Degree 1 on the true atoms, 0 elsewhere."""
    return Interpretation(
        {a: ONE if a in x.true_atoms else ZERO for a in x.signature})


def defuz(i: Interpretation) -> BoolInterpretation:
    """Keep exactly the atoms interpreted at 1."""
    return BoolInterpretation(
        i.atoms(), frozenset(a for a, v in i.items() if v == ONE))


def choice(minimized: tuple[str, ...] | list[str], conj: str = "&m") -> Formula:
    """Conjunction of 'a |l not_s a' over the given atoms.

    Each part is identically 1, but conjoining the formula exempts those
    atoms from minimization in the stable semantics.
    """
    if not minimized:
        raise ValueError("choice needs at least one atom")
    if get_operator(conj).family is not OpFamily.CONJUNCTION:
        raise ValueError(f"{conj!r} is not a conjunction operator")
    parts = [Bin("|l", Atom(a), Neg("not_s", Atom(a))) for a in minimized]
    return conjoin(conj, parts)
