"""Hand-written tokenizer for AIQL.

Substitutes for the paper's ANTLR 4 front-end (no ANTLR offline). Produces a
flat token stream; keywords are recognized by the parser (so e.g. ``window``
can still be used as a variable name where unambiguous).

Token kinds: IDENT, STRING, NUMBER, OP (punctuation), EOF.
``//`` line comments are skipped — the paper's example queries carry them.
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
    kind: str  # IDENT | STRING | NUMBER | OP | EOF
    value: object
    pos: int


def tokenize(text: str) -> list[Token]:
    """Tokenize AIQL source; raises :class:`AIQLSyntaxError` on bad input."""
    toks: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
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
            toks.append(Token("STRING", "".join(buf), i))
            i = j + 1
            continue
        if m := _NUMBER.match(text, i):
            toks.append(Token("NUMBER", float(m[0]) if m[1] else int(m[0]), i))
            i = m.end()
            continue
        if m := _IDENT.match(text, i):
            toks.append(Token("IDENT", m[0], i))
            i = m.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("OP", p, i))
                i += len(p)
                break
        else:
            raise AIQLSyntaxError(f"unexpected character {c!r}", text, i)
    toks.append(Token("EOF", None, n))
    return toks
