"""Exact truth degrees and the fuzzy connective registry.

Truth degrees are rationals in [0, 1], represented as fractions.Fraction so
that evaluation, comparison and enumeration are exact.  Floats are rejected
at every entry point: 0.3 the float is not 3/10, and the semantics here
depend on exact equality against 1.

The registry covers three t-norm/t-conorm pairs (Lukasiewicz, minimum,
product), the standard negator, and three implications (residual a.k.a.
Goedel, S-implication a.k.a. Kleene-Dienes, Lukasiewicz).

candidates() is the capped product scan that every exhaustive search
outside the compiled kernel iterates; it knows nothing of what a
candidate means, so the routes that share it share no semantics.
"""
from __future__ import annotations

import enum
import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

Truth = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class TruthError(ValueError):
    """A value that does not denote a truth degree in [0, 1]."""


class ResourceLimitError(RuntimeError):
    """An exhaustive scan would exceed its candidate cap."""


def check_truth(value: object) -> Fraction:
    """Coerce int/Fraction/str to an exact degree in [0, 1]; a Fraction in
    range comes back unchanged, the same object.

    Floats are refused on purpose: they silently denote the wrong rational.
    """
    if isinstance(value, bool):
        raise TruthError("booleans are not truth degrees; use 0 or 1")
    if isinstance(value, float):
        raise TruthError(
            "floats are inexact; pass a string like '0.3' or a Fraction")
    if isinstance(value, str):
        return parse_truth(value)
    if isinstance(value, (int, Fraction)):
        v = value if type(value) is Fraction else Fraction(value)
        # In lowest terms with a positive denominator, so in [0, 1] exactly
        # when 0 <= numerator <= denominator.
        if not 0 <= v.numerator <= v.denominator:
            raise TruthError(f"truth degree out of [0, 1]: {v}")
        return v
    raise TruthError(f"cannot read a truth degree from {value!r}")


# The number forms of docs/grammar.md: '0.56', '.5', '1' and '14/25', in
# ASCII digits.  The formula lexer reads the same forms.
NUMBER_PATTERN = r"[0-9]+(?:/[0-9]+|\.[0-9]+)?|\.[0-9]+"
_NUMBER_RE = re.compile(NUMBER_PATTERN)


def parse_truth(text: str) -> Fraction:
    """Parse '0.56', '.5', '1', or '14/25' into an exact degree.

    Only those forms: Fraction alone would also read '1e-5', '+0.5', '1_0'
    and '٠.٥', and an exponent such as '1e-99999999' takes it minutes.
    Only the spaces the formula lexer skips are stripped: ' ', tab, CR
    and LF, not every Unicode space."""
    s = text.strip(" \t\r\n")
    try:
        if not _NUMBER_RE.fullmatch(s):
            raise ValueError
        v = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise TruthError(f"not a rational truth degree: {text!r}") from exc
    if not 0 <= v.numerator <= v.denominator:
        raise TruthError(f"truth degree out of [0, 1]: {text!r}")
    return v


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A json.loads object_pairs_hook that refuses a repeated key, where
    json.loads alone keeps the last one."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"JSON key {key!r} appears twice")
        data[key] = value
    return data


def _json_fraction(text: str) -> Fraction:
    """A json.loads parse_float hook: the number's source text as an exact
    Fraction, refusing exponent notation as parse_truth does."""
    if "e" in text or "E" in text:
        raise ValueError(f"JSON number {text} has an exponent; "
                         "write it as a decimal or a fraction string")
    return Fraction(text)


def read_json(text: str) -> dict:
    """The JSON object in text, every number read from its source text as
    an exact Fraction; a number with an exponent, a repeated key or a top
    level that is not an object is a ValueError."""
    data = json.loads(text, parse_float=_json_fraction, parse_int=Fraction,
                      object_pairs_hook=unique_keys)
    if not isinstance(data, dict):
        raise ValueError("the JSON top level must be an object")
    return data


def _ten_smooth_scale(den: int) -> int | None:
    """Smallest k with den | 10**k, or None if no power of 10 works."""
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den > 1:
        return None
    return max(twos, fives)


def format_truth(value: Fraction, decimal: bool = False) -> str:
    """Render a degree canonically.

    Default is the reduced fraction ('14/25', '0', '1').  With decimal=True
    a terminating decimal is used when one exists ('0.56'), otherwise the
    fraction form is kept.
    """
    if value.denominator == 1:
        return str(value.numerator)
    if decimal:
        k = _ten_smooth_scale(value.denominator)
        if k is not None:
            scaled = value.numerator * 10 ** k // value.denominator
            digits = str(scaled).rjust(k, "0")
            whole, frac = digits[:-k] or "0", digits[-k:]
            return f"{whole}.{frac}"
    return f"{value.numerator}/{value.denominator}"


class OpFamily(enum.Enum):
    CONJUNCTION = "conjunction"
    DISJUNCTION = "disjunction"
    NEGATION = "negation"
    IMPLICATION = "implication"


def _conj_luk(x: Fraction, y: Fraction) -> Fraction:
    return max(x + y - 1, ZERO)


def _disj_luk(x: Fraction, y: Fraction) -> Fraction:
    return min(x + y, ONE)


def _conj_min(x: Fraction, y: Fraction) -> Fraction:
    return min(x, y)


def _disj_max(x: Fraction, y: Fraction) -> Fraction:
    return max(x, y)


def _conj_prod(x: Fraction, y: Fraction) -> Fraction:
    return x * y


def _disj_prod(x: Fraction, y: Fraction) -> Fraction:
    return x + y - x * y


def _neg_standard(x: Fraction) -> Fraction:
    return 1 - x


def _impl_residual(x: Fraction, y: Fraction) -> Fraction:
    return ONE if x <= y else y


def _impl_kleene_dienes(x: Fraction, y: Fraction) -> Fraction:
    return max(1 - x, y)


def _impl_luk(x: Fraction, y: Fraction) -> Fraction:
    return min(1 - x + y, ONE)


@dataclass(frozen=True)
class Operator:
    """One fuzzy connective.

    residual: declared truth of '→(x,y)=1 exactly when y>=x'; meaningful for
        implications only and exhaustively re-checked in the test suite via
        residual_condition.
    lattice_closed: whether the connective maps every finite equidistant
        lattice into itself (the product pair does not).
    """
    token: str
    family: OpFamily
    arity: int
    fn: Callable[..., Fraction]
    residual: bool = False
    lattice_closed: bool = True


OPERATORS: dict[str, Operator] = {
    op.token: op
    for op in (
        Operator("&l", OpFamily.CONJUNCTION, 2, _conj_luk),
        Operator("&m", OpFamily.CONJUNCTION, 2, _conj_min),
        Operator("&p", OpFamily.CONJUNCTION, 2, _conj_prod, lattice_closed=False),
        Operator("|l", OpFamily.DISJUNCTION, 2, _disj_luk),
        Operator("|m", OpFamily.DISJUNCTION, 2, _disj_max),
        Operator("|p", OpFamily.DISJUNCTION, 2, _disj_prod, lattice_closed=False),
        Operator("not_s", OpFamily.NEGATION, 1, _neg_standard),
        Operator("->r", OpFamily.IMPLICATION, 2, _impl_residual, residual=True),
        Operator("->s", OpFamily.IMPLICATION, 2, _impl_kleene_dienes, residual=False),
        Operator("->l", OpFamily.IMPLICATION, 2, _impl_luk, residual=True),
    )
}

CONJUNCTIONS = tuple(t for t, o in OPERATORS.items() if o.family is OpFamily.CONJUNCTION)
DISJUNCTIONS = tuple(t for t, o in OPERATORS.items() if o.family is OpFamily.DISJUNCTION)
NEGATIONS = tuple(t for t, o in OPERATORS.items() if o.family is OpFamily.NEGATION)
IMPLICATIONS = tuple(t for t, o in OPERATORS.items() if o.family is OpFamily.IMPLICATION)


class UnknownOperatorError(ValueError):
    pass


def get_operator(token: str) -> Operator:
    try:
        return OPERATORS[token]
    except KeyError:
        known = ", ".join(sorted(OPERATORS))
        raise UnknownOperatorError(f"unknown operator {token!r} (known: {known})") from None


def op_apply(token: str, *args: Fraction) -> Fraction:
    op = get_operator(token)
    if len(args) != op.arity:
        raise ValueError(f"{token} expects {op.arity} arguments, got {len(args)}")
    return op.fn(*args)


@dataclass(frozen=True)
class Lattice:
    """The finite truth lattice {0, 1/D, 2/D, ..., 1}."""
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise ValueError("lattice denominator must be a positive integer")

    @property
    def size(self) -> int:
        return self.denominator + 1

    @functools.cached_property
    def _points(self) -> tuple[Fraction, ...]:
        # Built once per lattice; cached_property writes the instance
        # __dict__ directly, which a frozen dataclass allows.
        d = self.denominator
        return tuple(Fraction(k, d) for k in range(d + 1))

    def points(self) -> Iterator[Fraction]:
        return iter(self._points)

    def __contains__(self, value: Fraction) -> bool:
        # k/m in lowest terms (m > 0) is in [0, 1] when 0 <= k <= m, on 1/D when m | D
        return (0 <= value.numerator <= value.denominator
                and self.denominator % value.denominator == 0)

    def points_up_to(self, bound: Fraction) -> list[Fraction]:
        """Lattice points <= bound, ascending."""
        return [v for v in self.points() if v <= bound]


DEFAULT_CANDIDATE_CAP = 10 ** 7


def check_cap(total: int, cap: int) -> None:
    """Raise ResourceLimitError when `total` candidates exceed `cap`."""
    if total > cap:
        raise ResourceLimitError(
            f"{total} candidates exceed the cap of {cap}; "
            "raise the cap to scan them all")


def candidates(
    pools: Sequence[Sequence], cap: int, skip: tuple | None = None
) -> Iterator[tuple]:
    """Every combination of one value per pool, in itertools.product order
    (earlier pools varying more slowly), leaving out `skip`.

    Raises ResourceLimitError here, before anything is scanned, when the
    pools have more than `cap` combinations.  The caller decides what a
    combination means and which one it accepts.
    """
    check_cap(math.prod(len(p) for p in pools), cap)
    combos = itertools.product(*pools)
    if skip is None:
        return combos
    return (c for c in combos if c != skip)


def op_check_axioms(token: str, lattice: Lattice) -> list[str]:
    """Exhaustively check the defining axioms of one connective on a lattice.

    Returns a list of human-readable violations; empty means all axioms hold.
    Conjunction: increasing, commutative, associative, unit 1.
    Disjunction: increasing, commutative, associative, unit 0.
    Negation: decreasing, maps 0 to 1 and 1 to 0.
    Implication: decreasing in the first argument, increasing in the second,
    left unit 1, and 0 -> 0 gives 1.
    """
    op = get_operator(token)
    pts = list(lattice.points())
    bad: list[str] = []

    def report(msg: str) -> None:
        if len(bad) < 20:
            bad.append(msg)

    if op.family is OpFamily.NEGATION:
        if op.fn(ZERO) != ONE:
            report(f"{token}(0) != 1")
        if op.fn(ONE) != ZERO:
            report(f"{token}(1) != 0")
        for x, y in itertools.combinations(pts, 2):
            if op.fn(x) < op.fn(y):
                report(f"{token} not decreasing at ({x}, {y})")
        return bad

    if op.family is OpFamily.IMPLICATION:
        for x in pts:
            if op.fn(ONE, x) != x:
                report(f"{token}(1, {x}) != {x}")
        if op.fn(ZERO, ZERO) != ONE:
            report(f"{token}(0, 0) != 1")
        for x1, x2 in itertools.combinations(pts, 2):
            for y in pts:
                if op.fn(x1, y) < op.fn(x2, y):
                    report(f"{token} not decreasing in arg 1 at ({x1},{x2};{y})")
                if op.fn(y, x1) > op.fn(y, x2):
                    report(f"{token} not increasing in arg 2 at ({y};{x1},{x2})")
        return bad

    # t-norm or t-conorm
    unit = ONE if op.family is OpFamily.CONJUNCTION else ZERO
    for x in pts:
        if op.fn(unit, x) != x:
            report(f"{token}({unit}, {x}) != {x}")
    for x, y in itertools.combinations_with_replacement(pts, 2):
        if op.fn(x, y) != op.fn(y, x):
            report(f"{token} not commutative at ({x}, {y})")
    for x1, x2 in itertools.combinations(pts, 2):
        for y in pts:
            if op.fn(x1, y) > op.fn(x2, y):
                report(f"{token} not increasing at ({x1},{x2};{y})")
    for x, y, z in itertools.combinations_with_replacement(pts, 3):
        if op.fn(op.fn(x, y), z) != op.fn(x, op.fn(y, z)):
            report(f"{token} not associative at ({x},{y},{z})")
    return bad


def residual_condition(token: str, lattice: Lattice) -> bool:
    """Check '→(x,y) = 1 exactly when y >= x' over all lattice points."""
    op = get_operator(token)
    if op.family is not OpFamily.IMPLICATION:
        raise ValueError(f"{token} is not an implication")
    for x in lattice.points():
        for y in lattice.points():
            if (op.fn(x, y) == ONE) != (y >= x):
                return False
    return True


def lattice_closed(token: str, lattice: Lattice) -> bool:
    """Exhaustively check that the connective never leaves the lattice."""
    op = get_operator(token)
    pts = list(lattice.points())
    if op.arity == 1:
        return all(op.fn(x) in lattice for x in pts)
    return all(op.fn(x, y) in lattice for x in pts for y in pts)
