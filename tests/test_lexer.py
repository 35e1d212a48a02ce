"""The token-table lexer against a reference lexer that matches each
newline and each run of spaces or comment on its own and counts lines and
columns as it goes.  The parser's lexer folds that whitespace into the
next token's match and computes a position only from a start offset, so
the two share no position arithmetic."""
import random
import re
from pathlib import Path

import pytest

from fuzzysm import Atom, ParseError, parse_formula, print_formula
from fuzzysm.generators import ALL_OPERATORS, gen_formula
from fuzzysm.syntax import _Parser

PROGRAMS = Path(__file__).resolve().parents[1] / "bench" / "programs"

_REFERENCE_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in [
    ("end", r"#[^\n]*\Z|\Z"),
    ("newline", r"\n"),
    ("skip", r"[ \t\r]+|#[^\n]*"),
    ("number", r"[0-9]+/[0-9]+|[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("conj", r"&[lmp]"),
    ("disj", r"\|[lmp]"),
    ("impl", r"->[rsl]"),
    ("arrow", r"<-"),
    ("strongneg", r"~"),
    ("lparen", r"\("),
    ("rparen", r"\)"),
    ("dot", r"\."),
    ("comma", r","),
    ("kindless_op", r"[&|]"),
    ("kindless_impl", r"->"),
    ("minus", r"-"),
    ("less", r"<"),
    ("char", r"(?s:.)"),
]))
_REFERENCE_ERRORS = {
    "kindless_op": "operator {!r} needs a kind suffix (l, m or p)",
    "kindless_impl": "expected 'r', 's' or 'l' after '->'",
    "minus": "expected '->'",
    "less": "expected '<-'",
    "char": "unexpected character {!r}",
}
_KEYWORDS = {"not_s", "not"}


def reference_tokens(text: str) -> list[tuple] | str:
    """(kind, word, line, col) of each token up to and including the first
    'end', or the text of the first lexical error."""
    tokens = []
    line, line_start = 1, 0
    for m in _REFERENCE_RE.finditer(text):
        kind, word, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind in _REFERENCE_ERRORS:
            return f"line {line}, column {col}: {_REFERENCE_ERRORS[kind].format(word)}"
        elif kind != "skip":
            tokens.append((word if word in _KEYWORDS else kind, word, line, col))
            if kind == "end":
                break
    return tokens


def parser_tokens(text: str) -> list[tuple] | str:
    """The same, from the parser's lexer."""
    try:
        parser = _Parser(text)
    except ParseError as exc:
        return str(exc)
    out = []
    for kind, word, start in zip(parser.kinds, parser.words, parser.starts):
        at = parser.error("", start)
        out.append((kind, word, at.line, at.col))
    return out


_SEPARATORS = ["", " ", "  ", "\t", "\n", "\r\n", "\r", " \r\n\t", "# c\n",
               "#\r\n", " # -> & ~ é\n", "\n\n# a\n# b\r\n  "]
_ENDINGS = ["", " ", "\n", "\r\n", "# last", " #", "# c\n", "\n# last", "#"]


def spaced(rng: random.Random, text: str) -> str:
    """text with its tokens joined by random spaces, line ends and comments."""
    words = [w for _, w, _, _ in reference_tokens(text)[:-1]]
    parts = [rng.choice(_SEPARATORS)]
    for w in words:
        parts += [w, rng.choice(_SEPARATORS[1:])]
    return "".join(parts[:-1]) + rng.choice(_ENDINGS)


_PIECES = ["p", "q1", "_x", "not_s", "not", "nots", "not_s2", "&m", "&l", "&",
           "|p", "|", "->r", "->s", "->", "-", "<-", "<", "~", "(", ")", ".",
           ",", "0.5", "1/2", ".5", "3", "0..5", "1/", " ", "\t", "\n", "\r\n",
           "\r", "#", "# c", "$", "é", "\x0c", "٣", "\x00"]


def test_generated_formulas_with_spaces_and_comments():
    rng = random.Random(11)
    for seed in range(400):
        f = gen_formula(seed, ("p", "q", "r"), max_depth=4,
                        operator_pool=ALL_OPERATORS, allow_strongneg=True)
        text = spaced(rng, print_formula(f))
        assert parser_tokens(text) == reference_tokens(text), repr(text)
        assert parse_formula(text) == f, repr(text)


def test_random_strings():
    rng = random.Random(12)
    for _ in range(3000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 12)))
        assert parser_tokens(text) == reference_tokens(text), repr(text)


def test_corpus_and_bench_programs(corpus):
    paths = sorted(corpus.glob("*.fz")) + sorted(PROGRAMS.glob("*.lp"))
    assert len(paths) > 10
    for path in paths:
        text = path.read_text(encoding="utf-8")
        got = parser_tokens(text)
        assert isinstance(got, list) and got == reference_tokens(text), path.name


# Runs of spaces, line ends and comments are each consumed once; a lexer
# that backtracked through them would not finish.
def test_a_million_spaces():
    assert parse_formula(" " * 10 ** 6 + "p") == Atom("p")


def test_many_comment_lines():
    assert parse_formula("#c\n" * 200_000 + "p") == Atom("p")


def test_error_after_a_million_newlines():
    with pytest.raises(ParseError) as exc:
        parse_formula("\n" * 10 ** 6 + "p $")
    assert (exc.value.line, exc.value.col) == (1_000_001, 3)
    assert str(exc.value) == "line 1000001, column 3: unexpected character '$'"
