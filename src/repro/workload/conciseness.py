"""Query conciseness metrics (Table B).

The paper's post-demo evaluation: "SQL queries contain at least 3.0x more
constraints, 3.5x more words, and 5.2x more characters (excluding spaces)
than AIQL queries."

Metrics, computed identically on both texts:

* **constraints** — number of atomic predicates. For AIQL this is counted
  structurally from the AST (bracket filters + global time/agent/window
  constraints + temporal relations + the comparisons of ``having``); for
  SQL it is the number of comparison / LIKE operators in the text (every
  predicate in the synthesized SQL is a single such operator).
* **words** — whitespace-separated tokens.
* **chars** — characters excluding all whitespace.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.analyzer import Analysis
from repro.core.ast import BinOp, Query, UnaryOp

_SQL_CMP_RE = re.compile(
    r"<=|>=|<>|!=|(?<![<>!=])=(?!=)|<(?![=>])|>(?!=)|\bLIKE\b"
)


def aiql_constraints(q: Query) -> int:
    """Structural predicate count of an AIQL query (pre-analysis AST)."""
    n = 0
    n += 1 if q.time_range is not None else 0
    n += 1 if q.agentid is not None else 0
    n += 2 if q.window_ms is not None else 0  # window = ..., step = ...
    for ev in q.events:
        n += len(ev.subject.filters) + len(ev.object.filters)
    for tc in q.temporal:
        n += 1 + (1 if tc.within_ms is not None else 0)
    return n + _comparisons(q.having)


def _comparisons(e) -> int:
    """The comparison operators of a ``having`` expression tree."""
    if isinstance(e, BinOp):
        own = e.op in ("=", "!=", "<", "<=", ">", ">=")
        return own + _comparisons(e.left) + _comparisons(e.right)
    if isinstance(e, UnaryOp):
        return _comparisons(e.operand)
    return 0


def sql_constraints(sql: str) -> int:
    """Predicate count of synthesized SQL = comparison/LIKE operator count
    (AS aliases and arithmetic carry no comparison operators)."""
    return len(_SQL_CMP_RE.findall(sql))


def words(text: str) -> int:
    return len(text.split())


def chars(text: str) -> int:
    return len(re.sub(r"\s", "", text))


@dataclass(frozen=True)
class Conciseness:
    """Per-query Table B row."""
    name: str
    aiql_constraints: int
    aiql_words: int
    aiql_chars: int
    sql_constraints: int
    sql_words: int
    sql_chars: int


def strip_comments(aiql: str) -> str:
    """Drop ``// ...`` comments — annotation, not query content."""
    return re.sub(r"//[^\n]*", "", aiql)


def measure(name: str, ana: Analysis, sql: str) -> Conciseness:
    """Compute both sides' metrics for one query (AIQL comments excluded —
    the synthesized SQL carries none either)."""
    text = strip_comments(ana.query.text)
    return Conciseness(
        name=name,
        aiql_constraints=aiql_constraints(ana.query),
        aiql_words=words(text),
        aiql_chars=chars(text),
        sql_constraints=sql_constraints(sql),
        sql_words=words(sql),
        sql_chars=chars(sql),
    )


def aggregate_ratios(rows: list[Conciseness]) -> dict:
    """Workload-level SQL/AIQL ratios (the paper's headline numbers)."""
    tot = lambda f: sum(getattr(r, f) for r in rows)  # noqa: E731
    return {
        "constraints": tot("sql_constraints") / tot("aiql_constraints"),
        "words": tot("sql_words") / tot("aiql_words"),
        "chars": tot("sql_chars") / tot("aiql_chars"),
    }
