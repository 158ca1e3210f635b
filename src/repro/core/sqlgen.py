"""Equivalent-SQL synthesis.

For every AIQL query this emits the semantically equivalent SQL that a
security analyst would have to hand-write against the flat relational event
table — the paper's comparison target ("these languages often lead to large
queries with many joins and constraints mixed together"). The text serves
four roles:

* the **baseline** executed by ``spark.sql`` (Table A),
* the **correctness oracle** input executed by DuckDB,
* the **conciseness** comparison corpus (Table B),
* the **engine's** plan, run by ``spark.sql`` over the partition-pruned
  source: a multievent statement written in AIQL's schedule (join order
  and broadcast hints from the pruning-power scheduler;
  ``compiler.join_multievent``), an anomaly statement with its history
  read from a window frame instead of a self-join (``anomaly.run``).

Every name in the text was resolved to its column by the analyzer
(``Analysis.select``, ``group_cols``, ``agg_aliases``), and every piece of
it — pattern predicates, join and temporal conditions, ``having``, window
ids and aggregates — is written once, in ``expr``; this module only
formats those fields and assembles the pieces. Multievent SQL is
dialect-portable except for literals (``expr.sql_quote``) and the LIKE
escape clause DuckDB needs; anomaly SQL differs also in the
array-explosion idiom (Spark ``explode(sequence(...))`` vs
DuckDB/PostgreSQL ``unnest(generate_series(...))``).
"""
from __future__ import annotations

from repro.core.analyzer import Analysis
from repro.core.expr import agg_sql, link_sql, pattern_sql, to_sql, window_sql


def check_dialect(dialect: str) -> None:
    """The renderers write any dialect but ``spark`` as DuckDB/PostgreSQL."""
    if dialect not in ("spark", "duckdb", "postgres"):
        raise ValueError(f"unknown dialect {dialect!r}")


# ------------------------------------------------------------- multievent
def multievent_sql(ana: Analysis, dialect: str, table: str = "events",
                   order: list[str] | None = None, broadcast=frozenset()) -> str:
    """The flat self-join formulation an analyst would hand-write: one
    ``events`` scan per event pattern, explicit JOIN ... ON clauses carrying
    the entity and temporal relationships, and every pattern constraint
    mixed into one WHERE.

    ``order`` (default: declaration order) is the FROM/JOIN order, and each
    cross-pattern condition goes into the ON clause of the later of its two
    patterns in it, the earliest join where both are placed. A non-empty
    ``broadcast`` names the patterns a ``BROADCAST`` hint marks."""
    check_dialect(dialect)
    q = ana.query
    aliases = order or [ev.alias for ev in q.events]
    pos = {a: i for i, a in enumerate(aliases)}
    sel = ", ".join(f"{col} AS {name}" for col, name in ana.select)
    on: dict[str, list[str]] = {a: [] for a in aliases}
    for sides, cond in link_sql(ana):
        on[max(sides, key=pos.get)].append(cond)

    frm = [f"FROM {table} {aliases[0]}"]
    for a in aliases[1:]:
        if on[a]:
            frm.append(f"JOIN {table} {a} ON {' AND '.join(on[a])}")
        else:
            frm.append(f"CROSS JOIN {table} {a}")

    where = " AND ".join(pattern_sql(ana.pattern_preds[a], f"{a}.", dialect)
                         for a in aliases)
    hint = (f"/*+ BROADCAST({', '.join(a for a in aliases if a in broadcast)}) */ "
            if broadcast else "")
    distinct = "DISTINCT " if q.distinct else ""
    return (
        f"SELECT {hint}{distinct}{sel}\n"
        + "\n".join(frm)
        + f"\nWHERE {where}"
    )


# ---------------------------------------------------------------- anomaly
def history_sql(ana: Analysis) -> str:
    """``agg`` plus a column ``amt[k]`` per history access (quoted; no AIQL
    alias holds a ``[``): the group's ``amt`` in the window frame
    ``[wid - k, wid - k]``, NULL for a key with a NULL column as in the
    equi-join."""
    gcols = ana.group_cols
    keyed = " AND ".join(f"{c} IS NOT NULL" for c in gcols)
    by = f"PARTITION BY {', '.join(gcols)} " if gcols else ""
    cols = []
    for k in ana.hist_ks:
        for n in ana.agg_aliases:
            col = (f"FIRST({n}) OVER ({by}ORDER BY wid "
                   f"RANGE BETWEEN {k} PRECEDING AND {k} PRECEDING)")
            if keyed:
                col = f"CASE WHEN {keyed} THEN {col} END"
            cols.append(f"{col} AS `{n}[{k}]`")
    return f"(SELECT *, {', '.join(cols)} FROM agg)"


def anomaly_sql(ana: Analysis, dialect: str, table: str = "events",
                history: str = "join") -> str:
    """Sliding windows + historical aggregates as explicit SQL: window-id
    explosion, GROUP BY, and one self LEFT JOIN per history depth, or with
    ``history="window"`` (spark, the engine's) no join but
    :func:`history_sql`, which over one partition needs no shuffle."""
    check_dialect(dialect)
    q = ana.query
    alias = q.events[0].alias
    preds = pattern_sql(ana.pattern_preds[alias], "", dialect)
    in_window, window_ids = window_sql(ana, dialect)
    gcols = ana.group_cols
    gsel = "".join(f"{c}, " for c in gcols)
    base, joins = "agg", []
    if history == "join":
        for k in ana.hist_ks:
            on = [f"h{k}.{c} = a.{c}" for c in gcols] + [f"h{k}.wid = a.wid - {k}"]
            joins.append(f"LEFT JOIN agg h{k} ON {' AND '.join(on)}")
        hist = "h{k}.{n}"
    elif history == "window":
        if ana.hist_ks:
            base = history_sql(ana)
        hist = "a.`{n}[{k}]`"
    else:
        raise ValueError(f"unknown history lookup {history!r}")
    sel = ", ".join(f"a.{col} AS {name}" for col, name in ana.select)
    having = ""
    if q.having is not None:
        having = f"\nWHERE {to_sql(q.having, hist, dialect)}"
    distinct = "DISTINCT " if q.distinct else ""
    return (
        f"WITH src AS (\n"
        f"  SELECT * FROM {table} WHERE {preds}\n"
        f"), win AS (\n"
        f"  SELECT *, {window_ids} AS wid FROM src WHERE {in_window}\n"
        f"), agg AS (\n"
        f"  SELECT wid, {gsel}{', '.join(agg_sql(ana))} FROM win\n"
        f"  GROUP BY wid{''.join(', ' + c for c in gcols)}\n"
        f")\n"
        f"SELECT {distinct}{sel}\n"
        f"FROM {base} a\n" + "\n".join(joins) + having
    )


def equivalent_sql(ana: Analysis, dialect: str, table: str = "events") -> str:
    """The one-big-SQL equivalent of any analyzed query."""
    if ana.query.mode == "anomaly":
        return anomaly_sql(ana, dialect, table)
    return multievent_sql(ana, dialect, table)
