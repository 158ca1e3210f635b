"""Expression compilation: AIQL ``having`` trees → Spark ``Column`` s and
SQL text.

Both backends share one traversal parametrized by name-resolution
callables, so the engine and the synthesized SQL are structurally forced to
agree on semantics (the correctness oracle then verifies it).
"""
from __future__ import annotations

import operator
from typing import Callable

from pyspark.sql import Column
from pyspark.sql import functions as F

from repro.core.ast import AttrRef, BinOp, HistRef, Literal, UnaryOp

# Comparison operators on Spark ``Column`` s, shared with the per-pattern
# filters in ``compiler``.
SPARK_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
             "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_SPARK_BINOPS = {**SPARK_CMP, "or": operator.or_, "and": operator.and_,
                 "+": operator.add, "-": operator.sub, "*": operator.mul,
                 "/": operator.truediv}

# AIQL operators whose SQL spelling differs; every other operator is
# written as is. Shared with the pattern predicates in ``sqlgen``.
SQL_OPS = {"!=": "<>", "like": "LIKE", "not like": "NOT LIKE",
           "or": "OR", "and": "AND"}


# ------------------------------------------------------------------ Spark
def to_column(
    e,
    resolve_name: Callable[[str], Column],
    resolve_hist: Callable[[str, int], Column],
) -> Column:
    """Compile an expression to a Spark ``Column``."""
    if isinstance(e, Literal):
        return F.lit(e.value)
    if isinstance(e, AttrRef):
        if e.var is not None:
            raise ValueError(f"unresolved attribute {e.var}.{e.attr}")
        return resolve_name(e.attr)
    if isinstance(e, HistRef):
        return resolve_hist(e.name, e.k)
    if isinstance(e, UnaryOp):
        c = to_column(e.operand, resolve_name, resolve_hist)
        return ~c if e.op == "not" else -c
    if isinstance(e, BinOp):
        l = to_column(e.left, resolve_name, resolve_hist)
        r = to_column(e.right, resolve_name, resolve_hist)
        return _SPARK_BINOPS[e.op](l, r)
    raise ValueError(f"cannot compile expression node {e!r}")


# -------------------------------------------------------------------- SQL
def sql_quote(v) -> str:
    """Render a literal for SQL text (portable across Spark/DuckDB)."""
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return repr(v) if isinstance(v, float) else str(v)


def to_sql(
    e,
    resolve_name: Callable[[str], str],
    resolve_hist: Callable[[str, int], str],
) -> str:
    """Render an expression as SQL text (parenthesized — conciseness metrics
    count predicates, not parens)."""
    if isinstance(e, Literal):
        return sql_quote(e.value)
    if isinstance(e, AttrRef):
        if e.var is not None:
            raise ValueError(f"unresolved attribute {e.var}.{e.attr}")
        return resolve_name(e.attr)
    if isinstance(e, HistRef):
        return resolve_hist(e.name, e.k)
    if isinstance(e, UnaryOp):
        inner = to_sql(e.operand, resolve_name, resolve_hist)
        return f"(NOT {inner})" if e.op == "not" else f"(-{inner})"
    if isinstance(e, BinOp):
        l = to_sql(e.left, resolve_name, resolve_hist)
        r = to_sql(e.right, resolve_name, resolve_hist)
        return f"({l} {SQL_OPS.get(e.op, e.op)} {r})"
    raise ValueError(f"cannot render expression node {e!r}")
