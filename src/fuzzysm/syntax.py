"""Formula syntax: AST, parser, printer, and the normal-rule frontend.

Connective tokens follow the registry in algebra.py: '&l', '&m', '&p' for
conjunctions, '|l', '|m', '|p' for disjunctions, '->r', '->s', '->l' for
implications, 'not_s' for the standard negator.  '~' marks strong negation
and applies to atoms only.  Precedence, loosest first: implications
(right-associative), disjunctions, conjunctions (both left-associative),
then the unary negations.  docs/grammar.md is the normative description.

The lexer is one ordered token table, `_TOKEN_RE`, whose `findall` gives
the words of the tokens, well-formed or not; `_KINDS` and `_LEADS` give
each word its kind, and `_LEXICAL_ERRORS` the message for each error
kind.  Each match also takes the spaces, newlines and comments before its
token, and a token's start offset, line and column are computed only for
an error.

The parser and the rule frontend build most of their nodes with `_atom`,
`_neg`, `_bin` and `_rule`, which fill the slots without the
constructors' checks: the token table and the frontend have checked
every operator already.  The nodes are the same frozen classes, and the
public constructors keep their checks.
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import AbstractSet, Callable, Iterator, Sequence, TypeVar, Union

from .algebra import (
    NUMBER_PATTERN,
    ONE,
    OPERATORS,
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


# Operator families for the node checks; get_operator raises on an unknown token.
_FAMILIES = {token: op.family for token, op in OPERATORS.items()}


def _family(token: str) -> OpFamily:
    return _FAMILIES.get(token) or get_operator(token).family


def _check_binary(token: str) -> None:
    if _family(token) is OpFamily.NEGATION:
        raise ValueError(f"{token!r} is unary, not binary")


# Neg and Bin replace the generated ==, hash and repr, which recurse, with
# walks that keep their own stack, so a formula of any depth compares, hashes
# and prints.  The repr text is the generated one.


def _tree_eq(self, other: object) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    # Each class has a fixed number of children, so a preorder spells its
    # tree: two trees are equal when their preorders agree node by node.
    return all(x.__class__ is y.__class__ and (
        x.op == y.op if isinstance(x, (Neg, Bin)) else x == y)
        for x, y in zip(walk(self), walk(other)))


def _tree_hash(self) -> int:
    return fold(self, hash, lambda x, *hashes: hash((x.op, *hashes)))


def _tree_repr(self) -> str:
    out: list[str] = []
    stack: list = [self]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Bin):
            out.append(f"Bin(op={x.op!r}, left=")
            stack += (")", x.right, ", right=", x.left)
        elif isinstance(x, Neg):
            out.append(f"Neg(op={x.op!r}, body=")
            stack += (")", x.body)
        else:
            out.append(repr(x))
    return "".join(out)


@dataclass(frozen=True, slots=True)
class Neg:
    op: str
    body: "Formula"
    __eq__, __hash__, __repr__ = _tree_eq, _tree_hash, _tree_repr

    def __post_init__(self) -> None:
        if _family(self.op) is not OpFamily.NEGATION:
            raise ValueError(f"{self.op!r} is not a negation operator")


@dataclass(frozen=True, slots=True)
class Bin:
    op: str
    left: "Formula"
    right: "Formula"
    __eq__, __hash__, __repr__ = _tree_eq, _tree_hash, _tree_repr

    def __post_init__(self) -> None:
        _check_binary(self.op)


Formula = Union[Atom, Const, StrongNeg, Neg, Bin]
T = TypeVar("T")

# Node makers without the checks: a slot's descriptor sets it past the frozen
# __setattr__, and __post_init__ does not run.  Each caller has checked
# the values the constructor would check.
_new = object.__new__
_atom_name = Atom.name.__set__
_neg_op, _neg_body = Neg.op.__set__, Neg.body.__set__
_bin_op, _bin_left, _bin_right = Bin.op.__set__, Bin.left.__set__, Bin.right.__set__


def _atom(name: str) -> Atom:
    node = _new(Atom)
    _atom_name(node, name)
    return node


def _neg(op: str, body: Formula) -> Neg:
    node = _new(Neg)
    _neg_op(node, op)
    _neg_body(node, body)
    return node


def _bin(op: str, left: Formula, right: Formula) -> Bin:
    node = _new(Bin)
    _bin_op(node, op)
    _bin_left(node, left)
    _bin_right(node, right)
    return node


def _chain(op: str, parts: Sequence[Formula]) -> Formula:
    """conjoin with a binary op the caller has checked."""
    out = parts[0]
    for k in range(1, len(parts)):
        out = _bin(op, out, parts[k])
    return out


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


def leaves(f: Formula) -> tuple[tuple[str, ...], AbstractSet[str], set[str]]:
    """One walk over f's leaves: its atom names in first-occurrence order
    (strongly negated ones included), the names that occur plain, and the
    names that occur under '~'."""
    seen: dict[str, bool] = {}  # name -> occurs plain
    negated: set[str] = set()
    stack = [f]
    push, pop = stack.append, stack.pop
    while stack:
        x = pop()
        # Down the left spine, leaving the right children for later: the
        # leaves come in preorder.
        while True:
            cls = x.__class__
            if cls is Bin:
                push(x.right)
                x = x.left
            elif cls is Neg:
                x = x.body
            else:
                break
        # A name seen before keeps its place.
        if cls is Atom:
            seen[x.name] = True
        elif cls is StrongNeg:
            seen.setdefault(x.name, False)
            negated.add(x.name)
    # Without a '~' every name occurs plain: the keys say so at no cost.
    plain = {a for a, p in seen.items() if p} if negated else seen.keys()
    return tuple(seen), plain, negated


def atoms(f: Formula) -> tuple[str, ...]:
    """Atom names in first-occurrence order (strongly negated ones
    included): the first part of leaves(f)."""
    return leaves(f)[0]


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
    if len(parts) > 1:
        _check_binary(op)
    return _chain(op, parts)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# The token table, tried in order after a prefix that skips spaces, tabs,
# carriage returns, newlines and each comment a newline ends: the first
# alternative that matches wins, and the group holds the token's word.
# Identifiers take the keywords 'not_s' and 'not' too, since both end where
# an identifier would.  A comment on the last line is left to the end,
# which then stands where its '#' does; otherwise the end is the empty
# match at the end of the text.  The operators without their kind suffix,
# then any single character, catch whatever no token starts with, so every
# match succeeds after the longest prefix, which has one way through any
# text: a match is linear in its length.
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(r"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*(" + "|".join([
    _IDENT,                              # identifiers and keywords
    NUMBER_PATTERN,                      # numbers
    r"[&|][lmp]?|-(?:>[rsl]?)?|<-?",     # operators, whole or not
    r"#[^\n]*\Z|\Z",                     # the end
    r"(?s:.)",                           # one character
]) + ")")
# The kind of each word that is one token, or one malformed operator; any
# other word's kind follows from its first character, and a character that
# starts no token is the error kind 'char'.
_KINDS = {
    "": "end", "not_s": "not_s", "not": "not", "<-": "arrow", "~": "strongneg",
    "(": "lparen", ")": "rparen", ".": "dot", ",": "comma",
    **{f"&{k}": "conj" for k in "lmp"}, **{f"|{k}": "disj" for k in "lmp"},
    **{f"->{k}": "impl" for k in "rsl"},
    "&": "kindless_op", "|": "kindless_op", "->": "kindless_impl",
    "-": "minus", "<": "less",
}
_LEADS = {**dict.fromkeys(string.ascii_letters + "_", "ident"),
          **dict.fromkeys(string.digits + ".", "number"), "#": "end"}
_LEXICAL_ERRORS = {
    "kindless_op": "operator {!r} needs a kind suffix (l, m or p)",
    "kindless_impl": "expected 'r', 's' or 'l' after '->'",
    "minus": "expected '->'",
    "less": "expected '<-'",
    "char": "unexpected character {!r}",
}


def check_atom_name(name: str) -> None:
    """Raise ValueError unless a formula can spell name as an atom: an
    identifier other than the keywords 'not' and 'not_s'.  The readers of
    interpretations, valuations and atom lists apply it, so that every
    name they accept can be written in a formula."""
    if not re.fullmatch(_IDENT, name) or name in ("not", "not_s"):
        raise ValueError(
            f"{name!r} is not an atom name: a letter or '_', then letters, "
            "digits or '_', other than 'not' and 'not_s'")


# How deep parentheses, 'not_s' and right-nested implications may nest.
# The parser recurses through five frames per parenthesis, so this stays
# well inside Python's default recursion limit of 1000.
MAX_NESTING = 150


class _Parser:
    def __init__(self, text: str):
        """Tokenize text into the kinds and words of its tokens, up to and
        including the first 'end'.  The first lexical error raises, before
        any grammar error."""
        self.text = text
        self.words = words = _TOKEN_RE.findall(text)
        self.kinds = kinds = [_KINDS.get(w) or _LEADS.get(w[0], "char") for w in words]
        # After a non-empty match at the end of the text findall yields one
        # more, empty, 'end'.
        if kinds[-2:] == ["end", "end"]:
            del words[-1], kinds[-1]
        if not _LEXICAL_ERRORS.keys().isdisjoint(kinds):
            pos = next(k for k, kind in enumerate(kinds) if kind in _LEXICAL_ERRORS)
            raise self.error(_LEXICAL_ERRORS[kinds[pos]].format(words[pos]),
                             self.starts[pos])
        self.names: dict[str, Atom] = {}  # one Atom per name in this text
        self.pos = 0
        self.depth = 0

    @cached_property
    def starts(self) -> list[int]:
        """The start offset of each token: only an error needs them."""
        return [m.start(1) for m, _ in zip(_TOKEN_RE.finditer(self.text), self.words)]

    def error(self, message: str, start: int) -> ParseError:
        """A ParseError at offset start of the text: only a newline ends a
        line, and a column counts characters from 1."""
        text = self.text
        return ParseError(message, text.count("\n", 0, start) + 1,
                          start - text.rfind("\n", 0, start))

    def fail(self, message: str) -> ParseError:
        pos = self.pos
        shown = self.words[pos] if self.kinds[pos] != "end" else "end of input"
        return self.error(f"{message} (found {shown!r})", self.starts[pos])

    def atom(self) -> Atom:
        name = self.words[self.pos]
        self.pos += 1
        node = self.names.get(name)
        if node is None:
            node = self.names[name] = _atom(name)
        return node

    def constant(self) -> Const:
        pos = self.pos
        self.pos += 1
        try:
            return Const(parse_truth(self.words[pos]))
        except TruthError as exc:
            raise self.error(str(exc), self.starts[pos]) from None

    def nested(self, parse: Callable[[], Formula]) -> Formula:
        """Consume the token that opens one more level of nesting, then
        parse() what it opens."""
        opener = self.pos
        self.pos += 1
        if self.depth == MAX_NESTING:
            raise self.error(f"formula nests more than {MAX_NESTING} levels deep",
                             self.starts[opener])
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def expect(self, kind: str, what: str) -> None:
        if self.kinds[self.pos] != kind:
            raise self.fail(f"expected {what}")
        self.pos += 1

    # formula grammar ------------------------------------------------

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.kinds[self.pos] == "impl":
            op = self.words[self.pos]
            right = self.nested(self.formula)  # right-associative
            return _bin(op, left, right)
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.kinds[self.pos] == "disj":
            op = self.words[self.pos]
            self.pos += 1
            out = _bin(op, out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.kinds[self.pos] == "conj":
            op = self.words[self.pos]
            self.pos += 1
            out = _bin(op, out, self.unary())
        return out

    def unary(self) -> Formula:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "ident":
            return self.atom()
        if kind == "not_s":
            return _neg("not_s", self.nested(self.unary))
        if kind == "strongneg":
            self.pos += 1
            if self.kinds[pos + 1] != "ident":
                raise self.fail("'~' applies to a single atom")
            self.pos += 1
            return StrongNeg(self.words[pos + 1])
        if kind == "number":
            return self.constant()
        if kind == "lparen":
            inner = self.nested(self.formula)
            self.expect("rparen", "')'")
            return inner
        raise self.fail("expected an atom, a constant, '(' or a negation")

    # rule grammar ---------------------------------------------------

    def head_or_literal(self) -> Formula:
        kind = self.kinds[self.pos]
        if kind == "ident":
            return self.atom()
        if kind == "number":
            return self.constant()
        raise self.fail("expected an atom or a constant")

    def rule(self, conj: str) -> "Rule":
        kinds = self.kinds
        if kinds[self.pos] == "not":
            raise self.fail("'not' cannot appear in a rule head")
        head = self.head_or_literal()
        if kinds[self.pos] in ("disj", "comma"):
            raise self.fail("disjunctive rule heads are not supported")
        pos: list[Formula] = []
        neg: list[Formula] = []
        if kinds[self.pos] == "arrow":
            self.pos += 1
            if kinds[self.pos] != "dot":
                while True:
                    if kinds[self.pos] == "not":
                        self.pos += 1
                        neg.append(self.head_or_literal())
                    else:
                        pos.append(self.head_or_literal())
                    if kinds[self.pos] != "comma":
                        break
                    self.pos += 1
        self.expect("dot", "'.' to end the rule")
        return _rule(head, tuple(pos), tuple(neg), conj)

    def program(self, conj: str) -> list["Rule"]:
        rules = []
        while self.kinds[self.pos] != "end":
            rules.append(self.rule(conj))
        return rules


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    f = parser.formula()
    if parser.kinds[parser.pos] != "end":
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
        if _family(self.conj) is not OpFamily.CONJUNCTION:
            raise ValueError(f"{self.conj!r} is not a conjunction operator")


_rule_head, _rule_pos = Rule.head.__set__, Rule.pos.__set__
_rule_neg, _rule_conj = Rule.neg.__set__, Rule.conj.__set__


def _rule(head: Formula, pos: tuple[Formula, ...], neg: tuple[Formula, ...],
          conj: str) -> Rule:
    """A Rule built like _bin: the parser has checked what Rule checks."""
    rule = _new(Rule)
    _rule_head(rule, head)
    _rule_pos(rule, pos)
    _rule_neg(rule, neg)
    _rule_conj(rule, conj)
    return rule


def parse_fasp_program(text: str, conj: str) -> list[Rule]:
    """Parse 'head <- lit, not lit, ... .' rules.

    The body conjunction kind is not part of the file format and must be
    named explicitly; literals are separated by ','.
    """
    if get_operator(conj).family is not OpFamily.CONJUNCTION:
        raise ValueError(f"{conj!r} is not a conjunction operator")
    return _Parser(text).program(conj)


def rule_to_formula(rule: Rule) -> Formula:
    """body ->r head with 'not b' read as 'not_s b'; empty body becomes 1."""
    # A Rule's constructor has checked its conjunction.
    literals: list[Formula] = list(rule.pos)
    literals += [_neg("not_s", lit) for lit in rule.neg]
    body = _chain(rule.conj, literals) if literals else Const(ONE)
    return _bin("->r", body, rule.head)


def program_to_formula(rules: Sequence[Rule], conj: str) -> Formula:
    """Left-associative conjunction of the rule formulas."""
    if not rules:
        raise ValueError("empty program: nothing to translate")
    if get_operator(conj).family is not OpFamily.CONJUNCTION:
        raise ValueError(f"{conj!r} is not a conjunction operator")
    return _chain(conj, [rule_to_formula(r) for r in rules])
