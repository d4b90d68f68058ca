"""SQL tokenizer for the embedded columnar engine.

The engine accepts the SQL subset generated by the translation layer plus
the auxiliary analysis queries: CREATE TABLE (plain and ``AS SELECT``),
INSERT ... VALUES, WITH/SELECT/JOIN/GROUP BY/ORDER BY/LIMIT, DELETE and DROP.
One compiled pattern lexes a whole script: each match is one token followed
by the whitespace and ``--`` comments after it, so :func:`scan` is a single
``finditer`` pass producing the flat list of token triples the parser
consumes; :func:`tokenize` is the same list as named :class:`Token` tuples.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ...errors import SQLParseError

#: Token categories.
KEYWORD = "keyword"
IDENTIFIER = "identifier"
NUMBER = "number"
STRING = "string"
OPERATOR = "operator"
PUNCT = "punct"
END = "end"

#: Reserved words recognized as keywords (case-insensitive).
KEYWORDS = {
    "select", "from", "where", "group", "order", "by", "join", "inner", "left", "on",
    "as", "with", "create", "table", "temp", "temporary", "insert", "into", "values",
    "delete", "drop", "if", "exists", "not", "null", "and", "or", "asc", "desc",
    "limit", "offset", "union", "all", "distinct", "having", "case", "when", "then", "else", "end",
    "between", "in", "is", "like", "primary", "key", "explain", "analyze",
}

_SKIP = r"\s*(?:--[^\n]*\s*)*"

#: One alternative per token shape, tried in order; the trailing catch-all
#: keeps matches contiguous so nothing is skipped silently.  Multi-character
#: operators come before their one-character prefixes.
_TOKEN = re.compile(
    r"(?:(?P<word>[^\W\d]\w*)"
    r"|(?P<punct>[(),;]|\.(?![0-9]))"
    r"|(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<operator><<|>>|<=|>=|<>|!=|\|\||[-+*/%&|~<>=])"
    r"|(?P<string>'(?:[^']|'')*')"
    r"|(?P<quoted>\"[^\"]*\"|`[^`]*`)"
    r"|(?P<bad>.))" + _SKIP,
    re.DOTALL,
)
_LEADING = re.compile(_SKIP)


class Token(NamedTuple):
    """One lexical token: its category, normalized text and position."""

    kind: str
    text: str
    position: int

    def matches(self, kind: str, text: str | None = None) -> bool:
        """True if the token has the given kind (and text, when provided)."""
        return self[0] == kind and (text is None or self[1] == text)

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def _reject(char: str, position: int) -> SQLParseError:
    if char == "'":
        return SQLParseError(f"unterminated string literal at offset {position}")
    if char in '"`':
        return SQLParseError(f"unterminated quoted identifier at offset {position}")
    if char.isdigit():
        return SQLParseError(f"malformed number at offset {position}")
    return SQLParseError(f"unexpected character {char!r} at offset {position}")


def scan(sql: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, position)`` triples of a script, ``END`` sentinel last.

    What the parser reads: plain tuples cost a third less to build than
    :class:`Token`, the same triple with names, and index the same way.
    """
    tokens: list[tuple[str, str, int]] = []
    append = tokens.append
    keywords = KEYWORDS
    for match in _TOKEN.finditer(sql, _LEADING.match(sql).end()):
        group = match.lastgroup
        text = match.group(group)
        if group == "word":
            lowered = text.lower()
            if lowered in keywords:
                append((KEYWORD, lowered, match.start()))
            else:
                append((IDENTIFIER, text, match.start()))
        elif group == "punct":
            append((PUNCT, text, match.start()))
        elif group == "operator":
            append((OPERATOR, text, match.start()))
        elif group == "number":
            # ``1e``, ``0x10``, ``12abc``: a number runs straight into a word.
            position = match.start()
            following = sql[position + len(text) : position + len(text) + 1]
            if following.isalnum() or following == "_":
                raise SQLParseError(f"malformed number at offset {position}")
            append((NUMBER, text, position))
        elif group == "string":
            append((STRING, text[1:-1].replace("''", "'"), match.start()))
        elif group == "quoted":
            append((IDENTIFIER, text[1:-1], match.start()))
        else:
            raise _reject(text, match.start())
    append((END, "", len(sql)))
    return tokens


def tokenize(sql: str) -> list[Token]:
    """Split a SQL string into tokens (keywords lower-cased, identifiers preserved)."""
    return list(map(Token._make, scan(sql)))
