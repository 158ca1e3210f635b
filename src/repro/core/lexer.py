"""Hand-written tokenizer for AIQL.

Substitutes for the paper's ANTLR 4 front-end (no ANTLR offline). Produces a
flat token stream; keywords are recognized by the parser (so e.g. ``window``
can still be used as a variable name where unambiguous).

Token kinds: IDENT, STRING, NUMBER, OP (punctuation), EOF.
``//`` line comments outside strings are skipped — the paper's example
queries carry them; :func:`strip_comments` drops them by the same rule.
Names and numbers are ASCII, as Spark SQL's unquoted identifiers are:
``str.isdigit`` takes ``²``, which ``int`` rejects, and ``str.isalpha``
takes ``é``, which Spark's parser rejects.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

_NUMBER = re.compile(r"[0-9]+(\.[0-9]+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_PUNCT = [
    "<=", ">=", "!=",  # two-char first
    "(", ")", "[", "]", ",", "=", "<", ">", ".", "*", "/", "+", "-",
]


class AIQLSyntaxError(ValueError):
    """Lexing or parsing failure, with position context."""

    def __init__(self, msg: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        snippet = text[pos : pos + 20].split("\n")[0]
        super().__init__(f"{msg} at line {line}:{col} near {snippet!r}")
        self.pos = pos


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | STRING | NUMBER | OP | EOF (| COMMENT in _scan)
    value: object
    pos: int


def _scan(text: str):
    """Yield the tokens of AIQL source, each ``//`` comment as a COMMENT
    token holding its text up to the line break, then EOF."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            yield Token("COMMENT", text[i:j], i)
            i = j
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise AIQLSyntaxError("unterminated string", text, i)
            yield Token("STRING", "".join(buf), i)
            i = j + 1
            continue
        if m := _NUMBER.match(text, i):
            yield Token("NUMBER", float(m[0]) if m[1] else int(m[0]), i)
            i = m.end()
            continue
        if m := _IDENT.match(text, i):
            yield Token("IDENT", m[0], i)
            i = m.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                yield Token("OP", p, i)
                i += len(p)
                break
        else:
            raise AIQLSyntaxError(f"unexpected character {c!r}", text, i)
    yield Token("EOF", None, n)


def tokenize(text: str) -> list[Token]:
    """Tokenize AIQL source; raises :class:`AIQLSyntaxError` on bad input."""
    return [t for t in _scan(text) if t.kind != "COMMENT"]


def strip_comments(text: str) -> str:
    """``text`` without its ``//`` comments; a ``//`` inside a string is
    not one."""
    out, last = [], 0
    for t in _scan(text):
        if t.kind == "COMMENT":
            out.append(text[last:t.pos])
            last = t.pos + len(t.value)
    return "".join(out) + text[last:]
