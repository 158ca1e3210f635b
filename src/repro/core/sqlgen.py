"""Equivalent-SQL synthesis.

For every AIQL query this emits the semantically equivalent SQL that a
security analyst would have to hand-write against the flat relational event
table — the paper's comparison target ("these languages often lead to large
queries with many joins and constraints mixed together"). The text serves
three roles:

* the **baseline** executed by ``spark.sql`` (Table A),
* the **correctness oracle** input executed by DuckDB,
* the **conciseness** comparison corpus (Table B).

Multievent SQL is dialect-portable; anomaly SQL differs only in the
array-explosion idiom (Spark ``explode(sequence(...))`` vs DuckDB/PostgreSQL
``unnest(generate_series(...))``).
"""
from __future__ import annotations

from repro.core.analyzer import Analysis, OrGroup, Pred
from repro.core.anomaly import group_cols, window_bounds
from repro.core.ast import AttrRef, FuncCall
from repro.core.expr import SQL_OPS, sql_quote, to_sql


def _pred_sql(p, prefix: str) -> str:
    if isinstance(p, OrGroup):
        return "(" + " OR ".join(_pred_sql(s, prefix) for s in p.preds) + ")"
    assert isinstance(p, Pred)
    return f"{prefix}{p.col} {SQL_OPS.get(p.op, p.op)} {sql_quote(p.value)}"


# ------------------------------------------------------------- multievent
def multievent_sql(ana: Analysis, table: str = "events") -> str:
    """The flat self-join formulation an analyst would hand-write: one
    ``events`` scan per event pattern, explicit JOIN ... ON clauses carrying
    the entity and temporal relationships, and every pattern constraint
    mixed into one WHERE."""
    q = ana.query
    aliases = [ev.alias for ev in q.events]
    pos = {a: i for i, a in enumerate(aliases)}
    sel = []
    for it, name in zip(q.return_items, ana.return_names):
        a, c, _ = ana.resolve_ref(it.expr)
        sel.append(f"{a}.{c} AS {name}")

    # Each cross-pattern condition attaches to the ON clause of the later
    # (in declaration order) of its two patterns.
    on: dict[str, list[str]] = {a: [] for a in aliases}
    for a1, c1, a2, c2 in ana.join_conds:
        later = a2 if pos[a2] > pos[a1] else a1
        on[later].append(f"{a1}.{c1} = {a2}.{c2}")
    for tc in q.temporal:
        l, r = (tc.left, tc.right) if tc.rel == "before" else (tc.right, tc.left)
        later = max(tc.left, tc.right, key=pos.get)
        on[later].append(f"{l}.ts < {r}.ts")
        if tc.within_ms is not None:
            on[later].append(f"{r}.ts - {l}.ts <= {tc.within_ms}")

    frm = [f"FROM {table} {aliases[0]}"]
    for a in aliases[1:]:
        if on[a]:
            frm.append(f"JOIN {table} {a} ON {' AND '.join(on[a])}")
        else:
            frm.append(f"CROSS JOIN {table} {a}")

    where: list[str] = []
    for a in aliases:
        where += [_pred_sql(p, f"{a}.") for p in ana.pattern_preds[a]]
    distinct = "DISTINCT " if q.distinct else ""
    return (
        f"SELECT {distinct}{', '.join(sel)}\n"
        + "\n".join(frm)
        + f"\nWHERE {' AND '.join(where)}"
    )


# ---------------------------------------------------------------- anomaly
def anomaly_sql(ana: Analysis, dialect: str = "spark", table: str = "events") -> str:
    """Sliding windows + historical aggregates as explicit SQL: window-id
    explosion, GROUP BY, and one self LEFT JOIN per history depth."""
    if dialect not in ("spark", "duckdb", "postgres"):
        raise ValueError(f"unknown dialect {dialect!r}")
    q = ana.query
    alias = q.events[0].alias
    t0, w, s, kmax = window_bounds(ana)
    preds = " AND ".join(_pred_sql(p, "") for p in ana.pattern_preds[alias])
    lo = (f"GREATEST(CAST(0 AS BIGINT), "
          f"CAST(FLOOR((ts - {t0} - {w}) / {s}) AS BIGINT) + 1)")
    hi = (f"LEAST(CAST({kmax} AS BIGINT), "
          f"CAST(FLOOR((ts - {t0}) / {s}) AS BIGINT))")
    if dialect == "spark":
        expl = f"explode(sequence({lo}, {hi}))"
    else:
        expl = f"unnest(generate_series({lo}, {hi}))"
    gcols = group_cols(ana)
    gsel = "".join(f"{c}, " for c in gcols)
    aggs = []
    for name, fc in ana.agg_aliases.items():
        if not fc.args:
            aggs.append(f"COUNT(*) AS {name}")
        else:
            arg = fc.args[0]
            assert isinstance(arg, AttrRef)
            _, c, _ = ana.resolve_ref(arg)
            aggs.append(f"{fc.name.upper()}({c}) AS {name}")
    joins = []
    for k in ana.hist_ks:
        on = [f"h{k}.{c} = a.{c}" for c in gcols] + [f"h{k}.wid = a.wid - {k}"]
        joins.append(f"LEFT JOIN agg h{k} ON {' AND '.join(on)}")
    sel = []
    for it, name in zip(q.return_items, ana.return_names):
        if isinstance(it.expr, FuncCall):
            sel.append(f"a.{name} AS {name}")
        else:
            _, c, _ = ana.resolve_ref(it.expr)
            sel.append(f"a.{c} AS {name}")
    having = ""
    if q.having is not None:
        cond = to_sql(
            q.having,
            resolve_name=lambda n: f"a.{n}",
            resolve_hist=lambda n, k: f"h{k}.{n}",
        )
        having = f"\nWHERE {cond}"
    distinct = "DISTINCT " if q.distinct else ""
    return (
        f"WITH src AS (\n"
        f"  SELECT * FROM {table} WHERE {preds}\n"
        f"), win AS (\n"
        f"  SELECT *, {expl} AS wid FROM src WHERE {lo} <= {hi}\n"
        f"), agg AS (\n"
        f"  SELECT wid, {gsel}{', '.join(aggs)} FROM win\n"
        f"  GROUP BY wid{''.join(', ' + c for c in gcols)}\n"
        f")\n"
        f"SELECT {distinct}{', '.join(sel)}\n"
        f"FROM agg a\n" + "\n".join(joins) + having
    )


def equivalent_sql(ana: Analysis, dialect: str = "spark", table: str = "events") -> str:
    """The one-big-SQL equivalent of any analyzed query."""
    if ana.query.mode == "anomaly":
        return anomaly_sql(ana, dialect, table)
    return multievent_sql(ana, table)
