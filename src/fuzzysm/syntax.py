"""Formula syntax: AST, parser, printer, and the normal-rule frontend.

Connective tokens follow the registry in algebra.py: '&l', '&m', '&p' for
conjunctions, '|l', '|m', '|p' for disjunctions, '->r', '->s', '->l' for
implications, 'not_s' for the standard negator.  '~' marks strong negation
and applies to atoms only.  Precedence, loosest first: implications
(right-associative), disjunctions, conjunctions (both left-associative),
then the unary negations.  docs/grammar.md is the normative description.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar, Union

from .algebra import (
    OpFamily,
    TruthError,
    check_truth,
    format_truth,
    get_operator,
    parse_truth,
)


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", check_truth(self.value))


@dataclass(frozen=True, slots=True)
class StrongNeg:
    """Strong negation of an atom; eliminated by transforms.nneg."""
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    op: str
    body: "Formula"

    def __post_init__(self) -> None:
        if get_operator(self.op).family is not OpFamily.NEGATION:
            raise ValueError(f"{self.op!r} is not a negation operator")


@dataclass(frozen=True, slots=True)
class Bin:
    op: str
    left: "Formula"
    right: "Formula"

    def __post_init__(self) -> None:
        fam = get_operator(self.op).family
        if fam is OpFamily.NEGATION:
            raise ValueError(f"{self.op!r} is unary, not binary")


Formula = Union[Atom, Const, StrongNeg, Neg, Bin]
T = TypeVar("T")


def walk(f: Formula) -> Iterator[Formula]:
    """All subformulas, preorder."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Neg):
            stack.append(node.body)
        elif isinstance(node, Bin):
            stack.append(node.right)
            stack.append(node.left)


def fold(f: Formula, leaf: Callable[[Formula], T],
         node: Callable[..., T]) -> T:
    """Reduce f bottom-up with an explicit stack, no recursion: leaf(x) on
    atoms, constants and strong negations, node(x, *results) on Neg and
    Bin with the results of its children, left to right.  Calls come in
    post-order, so a left subtree is done before its right sibling."""
    results: list[T] = []
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        x, ready = stack.pop()
        if ready:
            if isinstance(x, Bin):
                right = results.pop()
                results.append(node(x, results.pop(), right))
            else:
                results.append(node(x, results.pop()))
        elif isinstance(x, Bin):
            stack += ((x, True), (x.right, False), (x.left, False))
        elif isinstance(x, Neg):
            stack += ((x, True), (x.body, False))
        else:
            results.append(leaf(x))
    return results.pop()


def atoms(f: Formula) -> tuple[str, ...]:
    """Atom names in first-occurrence order (strongly negated ones included)."""
    seen: dict[str, None] = {}
    for node in walk(f):
        if isinstance(node, (Atom, StrongNeg)):
            seen.setdefault(node.name, None)
    return tuple(seen)


def signature_of(*formulas: Formula, extra: Sequence[str] = ()) -> tuple[str, ...]:
    """Ordered union of atom names: formula order first, then extras."""
    seen: dict[str, None] = {}
    for f in formulas:
        for a in atoms(f):
            seen.setdefault(a, None)
    for a in extra:
        seen.setdefault(a, None)
    return tuple(seen)


def conjoin(op: str, parts: Sequence[Formula]) -> Formula:
    """Left-associative fold; requires at least one part."""
    if not parts:
        raise ValueError("cannot conjoin zero formulas")
    out = parts[0]
    for part in parts[1:]:
        out = Bin(op, out, part)
    return out


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\d+/\d+|\d+\.\d+|\.\d+|\d+")

_KEYWORDS = {"not_s": "not_s", "not": "not"}
_SUFFIXES = {"&": "lmp", "|": "lmp", "->": "rsl"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col

        def emit(kind: str, text_: str) -> None:
            tokens.append(_Token(kind, text_, start_line, start_col))

        if ch in "&|":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt in _SUFFIXES[ch]:
                emit("conj" if ch == "&" else "disj", ch + nxt)
                i += 2
                col += 2
            else:
                emit("bar" if ch == "|" else "amp", ch)
                i += 1
                col += 1
            continue
        if ch == "-":
            if text[i : i + 2] != "->":
                raise ParseError("expected '->'", line, col)
            nxt = text[i + 2] if i + 2 < n else ""
            if nxt not in "rsl":
                raise ParseError("expected 'r', 's' or 'l' after '->'", line, col)
            emit("impl", "->" + nxt)
            i += 3
            col += 3
            continue
        if ch == "<":
            if text[i : i + 2] != "<-":
                raise ParseError("expected '<-'", line, col)
            emit("arrow", "<-")
            i += 2
            col += 2
            continue
        if ch == "~":
            emit("strongneg", "~")
            i += 1
            col += 1
            continue
        if ch == "(":
            emit("lparen", "(")
            i += 1
            col += 1
            continue
        if ch == ")":
            emit("rparen", ")")
            i += 1
            col += 1
            continue
        if ch == ".":
            nm = _NUMBER_RE.match(text, i)
            if nm:
                emit("number", nm.group())
                col += nm.end() - i
                i = nm.end()
            else:
                emit("dot", ".")
                i += 1
                col += 1
            continue
        if ch == ",":
            emit("comma", ",")
            i += 1
            col += 1
            continue
        if ch.isdigit():
            nm = _NUMBER_RE.match(text, i)
            assert nm is not None
            emit("number", nm.group())
            col += nm.end() - i
            i = nm.end()
            continue
        im = _IDENT_RE.match(text, i)
        if im:
            word = im.group()
            emit(_KEYWORDS.get(word, "ident"), word)
            col += im.end() - i
            i = im.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# How deep parentheses, 'not_s' and right-nested implications may nest.
# The parser recurses through five frames per parenthesis, so this stays
# well inside Python's default recursion limit of 1000.
MAX_NESTING = 150


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.cur
        if tok.kind in ("amp", "bar"):
            message = f"operator {tok.text!r} needs a kind suffix (l, m or p)"
            return ParseError(message, tok.line, tok.col)
        shown = tok.text if tok.kind != "end" else "end of input"
        return ParseError(f"{message} (found {shown!r})", tok.line, tok.col)

    def constant(self) -> Const:
        tok = self.advance()
        try:
            return Const(parse_truth(tok.text))
        except TruthError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def nested(self, parse: Callable[[], Formula]) -> Formula:
        """Consume the token that opens one more level of nesting, then
        parse() what it opens."""
        tok = self.advance()
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"formula nests more than {MAX_NESTING} levels deep", tok.line, tok.col)
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            raise self.fail(f"expected {what}")
        return self.advance()

    # formula grammar ------------------------------------------------

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.cur.kind == "impl":
            op = self.cur.text
            right = self.nested(self.formula)  # right-associative
            return Bin(op, left, right)
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.cur.kind == "disj":
            op = self.advance().text
            out = Bin(op, out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.cur.kind == "conj":
            op = self.advance().text
            out = Bin(op, out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.cur
        if tok.kind == "not_s":
            return Neg("not_s", self.nested(self.unary))
        if tok.kind == "strongneg":
            self.advance()
            if self.cur.kind != "ident":
                raise self.fail("'~' applies to a single atom")
            return StrongNeg(self.advance().text)
        if tok.kind == "ident":
            return Atom(self.advance().text)
        if tok.kind == "number":
            return self.constant()
        if tok.kind == "lparen":
            inner = self.nested(self.formula)
            self.expect("rparen", "')'")
            return inner
        if tok.kind in ("amp", "bar"):
            raise self.fail(
                f"operator {tok.text!r} needs a kind suffix (l, m or p)")
        raise self.fail("expected an atom, a constant, '(' or a negation")

    # rule grammar ---------------------------------------------------

    def head_or_literal(self) -> Formula:
        if self.cur.kind == "ident":
            return Atom(self.advance().text)
        if self.cur.kind == "number":
            return self.constant()
        raise self.fail("expected an atom or a constant")

    def rule(self, conj: str) -> "Rule":
        if self.cur.kind == "not":
            raise self.fail("'not' cannot appear in a rule head")
        head = self.head_or_literal()
        if self.cur.kind in ("bar", "disj", "comma"):
            raise self.fail("disjunctive rule heads are not supported")
        pos: list[Formula] = []
        neg: list[Formula] = []
        if self.cur.kind == "arrow":
            self.advance()
            if self.cur.kind != "dot":
                while True:
                    if self.cur.kind == "not":
                        self.advance()
                        neg.append(self.head_or_literal())
                    else:
                        pos.append(self.head_or_literal())
                    if self.cur.kind != "comma":
                        break
                    self.advance()
        self.expect("dot", "'.' to end the rule")
        return Rule(head, tuple(pos), tuple(neg), conj)

    def program(self, conj: str) -> list["Rule"]:
        rules = []
        while self.cur.kind != "end":
            rules.append(self.rule(conj))
        return rules


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    if parser.cur.kind != "end":
        raise parser.fail("trailing input after formula")
    return f


_PREC_BY_FAMILY = {
    OpFamily.IMPLICATION: 0,
    OpFamily.DISJUNCTION: 1,
    OpFamily.CONJUNCTION: 2,
}


def print_formula(f: Formula) -> str:
    """Canonical rendering; parse_formula(print_formula(f)) == f when f
    nests at most MAX_NESTING levels deep."""

    def wrap(part: tuple[str, int], need: int, strict: bool) -> str:
        text, prec = part
        return f"({text})" if prec < need or (strict and prec == need) else text

    def leaf(x: Formula) -> tuple[str, int]:
        if isinstance(x, Const):
            return format_truth(x.value, decimal=True), 4
        return x.name if isinstance(x, Atom) else f"~{x.name}", 4

    def node(x: Formula, *parts: tuple[str, int]) -> tuple[str, int]:
        if isinstance(x, Neg):
            return f"not_s {wrap(parts[0], 3, False)}", 3
        fam = get_operator(x.op).family
        level = _PREC_BY_FAMILY[fam]
        right_assoc = fam is OpFamily.IMPLICATION
        left = wrap(parts[0], level, right_assoc)
        right = wrap(parts[1], level, not right_assoc)
        return f"{left} {x.op} {right}", level

    return fold(f, leaf, node)[0]


# Normal-rule frontend ----------------------------------------------


@dataclass(frozen=True, slots=True)
class Rule:
    """head <- pos literals and 'not'-marked literals, joined by conj."""
    head: Formula
    pos: tuple[Formula, ...]
    neg: tuple[Formula, ...]
    conj: str

    def __post_init__(self) -> None:
        if not isinstance(self.head, (Atom, Const)):
            raise ValueError("rule head must be an atom or a constant")
        for lit in self.pos + self.neg:
            if not isinstance(lit, (Atom, Const)):
                raise ValueError("rule literals must be atoms or constants")
        if get_operator(self.conj).family is not OpFamily.CONJUNCTION:
            raise ValueError(f"{self.conj!r} is not a conjunction operator")


def parse_fasp_program(text: str, conj: str) -> list[Rule]:
    """Parse 'head <- lit, not lit, ... .' rules.

    The body conjunction kind is not part of the file format and must be
    named explicitly; literals are separated by ','.
    """
    if get_operator(conj).family is not OpFamily.CONJUNCTION:
        raise ValueError(f"{conj!r} is not a conjunction operator")
    return _Parser(_tokenize(text)).program(conj)


def rule_to_formula(rule: Rule) -> Formula:
    """body ->r head with 'not b' read as 'not_s b'; empty body becomes 1."""
    literals: list[Formula] = list(rule.pos)
    literals += [Neg("not_s", lit) for lit in rule.neg]
    body = conjoin(rule.conj, literals) if literals else Const(Fraction(1))
    return Bin("->r", body, rule.head)


def program_to_formula(rules: Sequence[Rule], conj: str) -> Formula:
    """Left-associative conjunction of the rule formulas."""
    if not rules:
        raise ValueError("empty program: nothing to translate")
    if get_operator(conj).family is not OpFamily.CONJUNCTION:
        raise ValueError(f"{conj!r} is not a conjunction operator")
    return conjoin(conj, [rule_to_formula(r) for r in rules])
