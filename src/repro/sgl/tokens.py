"""Lexer for SGL scripts and for the restricted SQL fragment.

The token set covers both surface languages of the paper:

* SGL action functions (Figure 3): ``let``, ``if``/``then``/``else``,
  ``perform``, ``function`` definitions, arithmetic and comparisons;
* the restricted SQL of Eqs. (4)/(5) used to define built-in aggregate and
  action functions (Figures 4 and 5): ``SELECT``/``FROM``/``WHERE``/
  ``AS``/``AND`` plus the same term syntax.

Keywords are case-insensitive, matching the mixed-case style of the
paper's listings (SGL keywords are lowercase, SQL keywords uppercase).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import SglSyntaxError


class TokenKind(enum.Enum):
    NUMBER = "number"
    STRING = "string"
    NAME = "name"
    KEYWORD = "keyword"
    OP = "op"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMI = ";"
    DOT = "."
    STAR = "*"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        # SGL keywords
        "let", "if", "then", "else", "perform", "function", "returns",
        "and", "or", "not", "true", "false",
        # SQL keywords of the restricted fragment
        "select", "from", "where", "as", "group", "by",
    }
)

#: Operators; a two-character one wins over its one-character prefix.
_OPERATORS = ("<=", ">=", "<>", "!=", "==", "=", "<", ">", "+", "-", "/", "%")
_OPERATORS_2 = frozenset(op for op in _OPERATORS if len(op) == 2)
_OPERATORS_1 = frozenset(op for op in _OPERATORS if len(op) == 1)

#: A run of blanks, and the rest of a word after its first letter or
#: ``_`` (``\w`` is exactly ``str.isalnum()`` or ``_``): one match per
#: run instead of one Python step per character.
_BLANKS = re.compile(r"[ \t\r]+")
_WORD_REST = re.compile(r"\w*")


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"


_SINGLE = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ".": TokenKind.DOT,
    "*": TokenKind.STAR,
}


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, raising :class:`SglSyntaxError` on bad input."""
    return list(_scan(source))


def _scan(source: str) -> Iterator[Token]:
    i = 0
    line = 1
    line_start = 0
    n = len(source)

    def col(pos: int) -> int:
        return pos - line_start + 1

    while i < n:
        ch = source[i]

        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i = _BLANKS.match(source, i).end()  # type: ignore[union-attr]
            continue

        # comments: '#' and '//' to end of line, '/* ... */' block
        if ch == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise SglSyntaxError("unterminated block comment", line, col(i))
            line += source.count("\n", i, end)
            if "\n" in source[i:end]:
                line_start = source.rfind("\n", i, end) + 1
            i = end + 2
            continue

        start_col = col(i)

        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    # '1.x' attribute-style references must not eat the dot
                    if j + 1 >= n or not source[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            yield Token(TokenKind.NUMBER, source[i:j], line, start_col)
            i = j
            continue

        if ch.isalpha() or ch == "_":
            j = _WORD_REST.match(source, i + 1).end()  # type: ignore[union-attr]
            word = source[i:j]
            lowered = word.lower()
            if lowered in KEYWORDS:
                yield Token(TokenKind.KEYWORD, lowered, line, start_col)
            else:
                yield Token(TokenKind.NAME, word, line, start_col)
            i = j
            continue

        if ch in "'\"":
            quote = ch
            j = i + 1
            while j < n and source[j] != quote:
                if source[j] == "\n":
                    raise SglSyntaxError("unterminated string", line, start_col)
                j += 1
            if j >= n:
                raise SglSyntaxError("unterminated string", line, start_col)
            yield Token(TokenKind.STRING, source[i + 1 : j], line, start_col)
            i = j + 1
            continue

        matched_op = source[i : i + 2]
        if matched_op not in _OPERATORS_2:
            matched_op = ch if ch in _OPERATORS_1 else None
        if matched_op is not None:
            yield Token(TokenKind.OP, matched_op, line, start_col)
            i += len(matched_op)
            continue

        if ch in _SINGLE:
            yield Token(_SINGLE[ch], ch, line, start_col)
            i += 1
            continue

        raise SglSyntaxError(f"unexpected character {ch!r}", line, start_col)

    yield Token(TokenKind.EOF, "", line, col(i))
