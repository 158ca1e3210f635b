"""SQL text for the pieces of a lowered AIQL query.

This is the one rendering of an :class:`~repro.core.analyzer.Analysis`:
pattern predicates, the cross-pattern join and temporal conditions,
``having`` trees, and an anomaly query's window ids and aggregates, each
written by exactly one function here. The analyzer has resolved every
name to its physical column; these functions only format what it lowered.
The synthesized big SQL (``sqlgen``) assembles them into one statement,
which the engine runs too (``compiler``, ``anomaly``). So the engine, the
Spark baseline and the DuckDB oracle cannot disagree on how a predicate
reads (the oracle then verifies the plans).

AIQL strings are literal except for the ``%`` wildcard. A LIKE pattern
escapes ``\\`` and ``_`` with ``\\`` (:func:`like_pattern`), the default
LIKE escape of Spark and PostgreSQL; DuckDB has none by default, so its
text names it (``ESCAPE '\\'``) wherever a pattern uses it. Spark SQL also
reads a backslash in any string literal as an escape, so the ``spark``
dialect doubles backslashes once more and escapes a quote with a backslash
too (:func:`sql_quote`); the DuckDB and PostgreSQL texts write literals as
they are, a quote doubled.

Every renderer takes the dialect explicitly: the spark and DuckDB texts of
one literal differ, and a default would pick one silently.
"""
from __future__ import annotations

from repro.core.analyzer import Analysis, OrGroup, Pred
from repro.core.ast import AttrRef, BinOp, HistRef, Literal, UnaryOp

# AIQL operators whose SQL spelling differs; every other operator is
# written as is.
SQL_OPS = {"!=": "<>", "like": "LIKE", "not like": "NOT LIKE",
           "or": "OR", "and": "AND"}


def like_pattern(v: str) -> str:
    """An AIQL wildcard string as a LIKE pattern under the escape character
    ``\\``: only ``%`` is a wildcard, so a backslash or an ``_`` in the
    string matches itself."""
    return v.replace("\\", "\\\\").replace("_", "\\_")


def sql_quote(v, dialect: str) -> str:
    """Render a literal for SQL text in ``dialect``."""
    if isinstance(v, str):
        if dialect == "spark":
            return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
        return "'" + v.replace("'", "''") + "'"
    return repr(v) if isinstance(v, float) else str(v)


def pred_sql(p, prefix: str, dialect: str) -> str:
    """One lowered predicate (or OR group) over the columns
    ``<prefix><col>``."""
    if isinstance(p, OrGroup):
        return "(" + " OR ".join(pred_sql(s, prefix, dialect) for s in p.preds) + ")"
    assert isinstance(p, Pred)
    v, escape = p.value, ""
    if p.op in ("like", "not like"):
        v = like_pattern(p.value)
        if dialect == "duckdb" and v != p.value:
            escape = " ESCAPE '\\'"
    return f"{prefix}{p.col} {SQL_OPS.get(p.op, p.op)} {sql_quote(v, dialect)}{escape}"


def pattern_sql(preds: list, prefix: str, dialect: str) -> str:
    """The AND of one event pattern's lowered predicates."""
    return " AND ".join(pred_sql(p, prefix, dialect) for p in preds)


def temporal_sql(tc) -> str:
    """``with a before b [within d]`` over the alias-qualified ``ts``
    columns."""
    cond = f"{tc.left}.ts < {tc.right}.ts"
    if tc.within_ms is not None:
        cond += f" AND {tc.right}.ts - {tc.left}.ts <= {tc.within_ms}"
    return cond


def link_sql(ana: Analysis) -> list[tuple[tuple[str, str], str]]:
    """Every cross-pattern condition of a multievent query, with the two
    event aliases it relates: the shared-variable uid equalities, then the
    temporal constraints."""
    links = [((a1, a2), f"{a1}.{c1} = {a2}.{c2}")
             for a1, c1, a2, c2 in ana.join_conds]
    return links + [((tc.left, tc.right), temporal_sql(tc))
                    for tc in ana.query.temporal]


def window_bounds(ana: Analysis):
    """(t0, window, step, kmax): window k covers [t0 + k*step, +window)."""
    q = ana.query
    t0, t1 = q.time_range
    kmax = (t1 - t0 - 1) // q.step_ms
    return t0, q.window_ms, q.step_ms, kmax


def window_sql(ana: Analysis, dialect: str) -> tuple[str, str]:
    """SQL text over ``ts`` for the sliding windows: the condition that some
    window holds the event, and the expression that explodes the event into
    the ids ``lo..hi`` of every window holding it."""
    t0, w, s, kmax = window_bounds(ana)
    lo = (f"GREATEST(CAST(0 AS BIGINT), "
          f"CAST(FLOOR((ts - {t0} - {w}) / {s}) AS BIGINT) + 1)")
    hi = (f"LEAST(CAST({kmax} AS BIGINT), "
          f"CAST(FLOOR((ts - {t0}) / {s}) AS BIGINT))")
    ids = "explode(sequence" if dialect == "spark" else "unnest(generate_series"
    return f"{lo} <= {hi}", f"{ids}({lo}, {hi}))"


def agg_sql(ana: Analysis) -> list[str]:
    """Each lowered aggregate as SQL text, ``FN(col) AS name``."""
    return [f"{fn.upper()}({col}) AS {name}"
            for name, (fn, col) in ana.agg_aliases.items()]


def to_sql(e, hist: str, dialect: str) -> str:
    """Render a ``having`` expression as SQL text over the per-window
    aggregate ``a`` (parenthesized — conciseness metrics count predicates,
    not parens). An aggregate alias ``n`` reads ``a.n``; a history access
    ``n[k]`` reads ``hist.format(n=n, k=k)``."""
    if isinstance(e, Literal):
        return sql_quote(e.value, dialect)
    if isinstance(e, AttrRef):
        if e.var is not None:
            raise ValueError(f"unresolved attribute {e.var}.{e.attr}")
        return f"a.{e.attr}"
    if isinstance(e, HistRef):
        return hist.format(n=e.name, k=e.k)
    if isinstance(e, UnaryOp):
        inner = to_sql(e.operand, hist, dialect)
        return f"(NOT {inner})" if e.op == "not" else f"(-{inner})"
    if isinstance(e, BinOp):
        l = to_sql(e.left, hist, dialect)
        r = to_sql(e.right, hist, dialect)
        return f"({l} {SQL_OPS.get(e.op, e.op)} {r})"
    raise ValueError(f"cannot render expression node {e!r}")
