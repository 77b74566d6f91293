"""Tokenizer for the supported SQL subset.

Produces a flat token stream for the parser. Supported lexemes: identifiers
and keywords, single-quoted string literals (with ``''`` escaping), integer
and float literals, comparison operators, and the punctuation used by
SELECT-FROM-WHERE queries.
"""

from __future__ import annotations

import sys

import enum
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import SqlSyntaxError

KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "AND", "OR", "BETWEEN", "IN", "AS", "NOT",
        "GROUP", "ORDER", "BY", "LIMIT", "ASC", "DESC", "IS", "NULL",
    }
)


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    STRING = "string"
    NUMBER = "number"
    OPERATOR = "operator"  # = <> < <= > >=
    COMMA = ","
    DOT = "."
    LPAREN = "("
    RPAREN = ")"
    STAR = "*"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    value: Any
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word


_SINGLE_CHAR = {
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "*": TokenKind.STAR,
}


def tokenize(sql: str) -> list[Token]:
    """Tokenize *sql*, raising :class:`SqlSyntaxError` on illegal input."""
    return list(_tokens(sql))


def _tokens(sql: str) -> Iterator[Token]:
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE_CHAR:
            yield Token(_SINGLE_CHAR[ch], ch, ch, i)
            i += 1
            continue
        if ch in "=<>!":
            two = sql[i : i + 2]
            if two in ("<>", "<=", ">=", "!="):
                text = "<>" if two == "!=" else two
                yield Token(TokenKind.OPERATOR, text, text, i)
                i += 2
                continue
            if ch == "!":
                raise SqlSyntaxError(f"unexpected character {ch!r}", i)
            yield Token(TokenKind.OPERATOR, ch, ch, i)
            i += 1
            continue
        if ch == "'":
            start = i
            literal, i = _read_string(sql, i)
            yield Token(TokenKind.STRING, literal, literal, start)
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and sql[i + 1].isdigit()):
            start = i
            value, text, i = _read_number(sql, i)
            yield Token(TokenKind.NUMBER, text, value, start)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                yield Token(TokenKind.KEYWORD, upper, upper, start)
            else:
                # Aliases, tables and columns recur in every statement of
                # a workload and end up in cached plans: keep one copy.
                word = sys.intern(word)
                yield Token(TokenKind.IDENT, word, word, start)
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    yield Token(TokenKind.EOF, "", None, n)


def _read_string(sql: str, start: int) -> tuple[str, int]:
    """Read a single-quoted literal starting at *start*; '' escapes a quote."""
    i = start + 1
    parts: list[str] = []
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlSyntaxError("unterminated string literal", start)


def _read_number(sql: str, start: int) -> tuple[int | float, str, int]:
    i = start
    n = len(sql)
    if sql[i] == "-":
        i += 1
    while i < n and sql[i].isdigit():
        i += 1
    is_float = False
    if i < n and sql[i] == "." and i + 1 < n and sql[i + 1].isdigit():
        is_float = True
        i += 1
        while i < n and sql[i].isdigit():
            i += 1
    text = sql[start:i]
    value: int | float = float(text) if is_float else int(text)
    return value, text, i
