"""Tokenizer for the ISDL concrete syntax.

The lexer is deliberately simple: identifiers, integer literals (decimal,
``0x`` hex, ``0b`` binary), double-quoted strings, and a fixed set of
punctuation/operator lexemes.  Keywords are not reserved — the parser matches
identifier *values* contextually, which keeps names like ``field`` usable as
storage names.

Comments run from ``#`` to end of line.  ``grammar.md`` gives the lexical
structure in full.

One compiled pattern does the work, so the Python loop runs once per token
or newline, never per character.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..errors import IsdlSyntaxError, SourceLocation

#: Operator lexemes; the pattern tries the two-character ones first, so
#: maximal munch works.
_OPERATORS = [
    "<<",
    ">>",
    "<-",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "$$",
    "..",
    "<",
    ">",
    "=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ":",
    ";",
    ",",
    ".",
    "?",
    "|",
    "&",
    "~",
    "^",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "@",
]

# One match skips the spaces, tabs, carriage returns and comments before a
# token and then matches the token.  A newline is a match of its own, so the
# line count is a counter.  Alternatives are tried in order, most frequent
# first; only hex/binary before INT and STRING before ``unterminated``
# overlap.  ``\d`` is a Unicode decimal digit, the set int() accepts;
# ``[^\W\d]`` also admits non-decimal digits and numerals such as ``²`` or
# ``Ⅷ``, which the ID branch turns back into errors.  ``end`` matches only
# at the end of the input and ``bad`` any other character, so after the
# skip some alternative always matches and the engine never backtracks
# into the skipped text.
_TOKEN = re.compile(
    r"(?:[ \t\r]+|#[^\n]*)*"
    r"(?:"
    r"(?P<ID>[^\W\d]\w*)"
    r"|(?P<OP>"
    + "|".join(re.escape(op) for op in _OPERATORS if len(op) == 2)
    + "|["
    + "".join(re.escape(op) for op in _OPERATORS if len(op) == 1)
    + "])"
    r"|(?P<newline>\n)"
    r"|(?P<hex>0[xX][0-9a-fA-F_]*)"
    r"|(?P<binary>0[bB][01_]*)"
    r"|(?P<INT>\d[\d_]*)"
    r'|(?P<STRING>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*")'
    r'|(?P<unterminated>")'
    r"|(?P<end>\Z)"
    r"|(?P<bad>[\s\S])"
    r")"
)
_ESCAPE = re.compile(r"\\([\s\S])")


class Token(NamedTuple):
    """A lexical token: ``kind`` is ID, INT, STRING, OP, or EOF."""

    kind: str
    value: object
    text: str
    filename: str
    line: int
    column: int

    @property
    def location(self) -> SourceLocation:
        # built on demand: most tokens never report a position
        return SourceLocation(self.filename, self.line, self.column)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.location})"


#: builds a Token without the Python-level NamedTuple constructor
_new = tuple.__new__


def tokenize(source: str, filename: str = "<isdl>") -> List[Token]:
    """Tokenize *source*, returning a list ending in an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        start, stop = match.span(kind)
        text = source[start:stop]
        column = start - line_start + 1
        if kind == "ID":
            if not (text[0].isalpha() or text[0] == "_"):
                _fail(f"unexpected character {text[0]!r}", filename, line,
                      column)
            append(_new(Token, ("ID", text, text, filename, line, column)))
        elif kind == "OP":
            append(_new(Token, ("OP", text, text, filename, line, column)))
        elif kind == "newline":
            line += 1
            line_start = stop
        elif kind == "INT":
            append(_new(Token, ("INT", int(text.replace("_", "")), text,
                                filename, line, column)))
        elif kind == "hex" or kind == "binary":
            digits = text[2:].replace("_", "")
            if not digits:
                _fail(f"malformed {kind} literal", filename, line, column)
            append(Token("INT", int(digits, 16 if kind == "hex" else 2),
                         text, filename, line, column))
        elif kind == "STRING":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(r"\1", body)
            append(Token("STRING", body, text, filename, line, column))
            if "\n" in text:  # an escaped newline
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif kind == "end":
            append(Token("EOF", None, "", filename, line, column))
            break  # finditer would match the empty end once more
        elif kind == "unterminated":
            _fail("unterminated string literal", filename, line, column)
        else:
            _fail(f"unexpected character {text!r}", filename, line, column)
    return tokens


def _fail(message: str, filename: str, line: int, column: int):
    raise IsdlSyntaxError(message, SourceLocation(filename, line, column))
