"""check_truth and parse_truth against reference copies that rebuild every
value with Fraction(value) and test its range with two Fraction
comparisons.  The package tests an exact Fraction or int by its numerator
and denominator and returns an in-range Fraction as given; every input
below must come back equal and of the same type, or raise the same
exception with the same text."""
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from fuzzysm import TruthError, check_truth, parse_truth
from fuzzysm.algebra import NUMBER_PATTERN, ONE, ZERO

_REFERENCE_NUMBER_RE = re.compile(NUMBER_PATTERN)


def reference_check_truth(value: object) -> Fraction:
    if isinstance(value, bool):
        raise TruthError("booleans are not truth degrees; use 0 or 1")
    if isinstance(value, float):
        raise TruthError(
            "floats are inexact; pass a string like '0.3' or a Fraction")
    if isinstance(value, str):
        return reference_parse_truth(value)
    if isinstance(value, (int, Fraction)):
        v = Fraction(value)
        if v < ZERO or v > ONE:
            raise TruthError(f"truth degree out of [0, 1]: {v}")
        return v
    raise TruthError(f"cannot read a truth degree from {value!r}")


def reference_parse_truth(text: str) -> Fraction:
    s = text.strip(" \t\r\n")
    try:
        if not _REFERENCE_NUMBER_RE.fullmatch(s):
            raise ValueError
        v = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise TruthError(f"not a rational truth degree: {text!r}") from exc
    if v < ZERO or v > ONE:
        raise TruthError(f"truth degree out of [0, 1]: {text!r}")
    return v


class Half(Fraction):
    pass


class Small(int):
    pass


VALUES = [
    True, False, 1.0, None, Decimal("0.5"),
    -1, 0, 1, 2,
    Fraction(0), Fraction(1), Fraction(1, 3), Fraction(-1, 10), Fraction(11, 10),
    Fraction(10 ** 40, 10 ** 40 + 1), Fraction(10 ** 40 + 1, 10 ** 40),
    Half(1, 2), Half(3, 2), Small(1), Small(0), Small(3),
]

TEXTS = [
    "0", "1", "0.56", ".5", "14/25", "1/1", "0/7", "2/2",
    " 0.5", "0.5 ", "\t14/25\n", "\r.5",
    "2", "1.5", "3/2", "10/9", "1/0", "", " ", "-0.5", "+0.5", "1e-5",
    "0.5.5", "1/2/3", "a", "0x1", "1_0", " 0.5", "٠.٥", "1 /2",
]


def outcome(fn, x):
    try:
        v = fn(x)
    except Exception as exc:  # the exception itself is the outcome
        return type(exc), str(exc)
    return type(v), v


@pytest.mark.parametrize("value", VALUES + TEXTS, ids=repr)
def test_check_truth_matches_the_reference(value):
    assert outcome(check_truth, value) == outcome(reference_check_truth, value)


@pytest.mark.parametrize("text", TEXTS, ids=repr)
def test_parse_truth_matches_the_reference(text):
    assert outcome(parse_truth, text) == outcome(reference_parse_truth, text)


def test_an_in_range_fraction_comes_back_unchanged():
    x = Fraction(10 ** 40, 10 ** 40 + 1)
    assert check_truth(x) is x
    # A subclass is still rebuilt as a plain Fraction.
    assert type(check_truth(Half(1, 2))) is Fraction
