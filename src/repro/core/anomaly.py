"""Anomaly-query execution (paper §2.2.3, §2.3).

"The engine partitions the events into sliding windows by the timestamp,
computes the aggregate results, and enforces the filters."

Windows start every ``step`` and span ``window`` (they overlap when
``step < window``); an event is exploded into every window containing it.
Historical aggregate access ``amt[k]`` resolves to the same group's
aggregate k windows earlier with a window-frame lookup: over the per-window
aggregate partitioned by the group columns and ordered by ``wid``, the
range frame ``[-k, -k]`` holds exactly window ``wid - k`` of that group, or
nothing. An empty frame gives NULL and the ``having`` comparison rejects the
row. A group whose key has a NULL column has no history at all, because the
synthesized SQL (``sqlgen.py``) resolves ``amt[k]`` with an equi-join that
never matches NULL keys; the DuckDB oracle verifies both rules.

The window ids and the aggregates are SQL text (:func:`window_sql`,
:func:`agg_sql`), written once for both the synthesized SQL and the engine,
which parses it with ``F.expr``; so is the final select
(``s_name AS p, amt``). The group columns (``group_cols``) come from the
analyzer, which rejects an aggregate alias that names one of them or
``wid``. Over a scope the engine reads as one partition (see ``engine``),
the aggregate and the history window run without a shuffle.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.analyzer import Analysis, group_cols
from repro.core.ast import FuncCall
from repro.core.expr import pattern_sql, to_sql


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
    """Each aggregate return item as SQL text, ``FN(col) AS name``."""
    out = []
    for name, fc in ana.agg_aliases.items():
        if not fc.args:
            out.append(f"COUNT(*) AS {name}")
        else:
            _, col, _ = ana.resolve_ref(fc.args[0])
            out.append(f"{fc.name.upper()}({col}) AS {name}")
    return out


def run(events: DataFrame, ana: Analysis) -> DataFrame:
    """Execute the analyzed anomaly query over the (possibly store-pruned)
    event DataFrame."""
    q = ana.query
    alias = q.events[0].alias
    in_window, window_ids = window_sql(ana, "spark")
    gcols = group_cols(ana)
    agg = (events.filter(F.expr(pattern_sql(ana.pattern_preds[alias], "", "spark")))
           .filter(F.expr(in_window))
           .selectExpr("*", f"{window_ids} AS wid")
           .groupBy("wid", *gcols)
           .agg(*[F.expr(a) for a in agg_sql(ana)]))
    # Historical aggregate access: same group, k windows earlier. Groups
    # with a NULL key column get no history, as in the equi-join SQL.
    if ana.hist_ks:
        keyed = reduce(lambda a, b: a & b,
                       (F.col(c).isNotNull() for c in gcols), F.lit(True))
        by_wid = Window.partitionBy(*gcols).orderBy("wid")
        agg = agg.select("*", *[
            F.when(keyed, F.first(n).over(by_wid.rangeBetween(-k, -k)))
            .alias(f"__h{k}__{n}")
            for k in ana.hist_ks for n in ana.agg_aliases])

    if q.having is not None:
        agg = agg.filter(F.expr(to_sql(
            q.having,
            resolve_name=lambda n: n,
            resolve_hist=lambda n, k: f"__h{k}__{n}",
            dialect="spark",
        )))

    out_cols = []
    for it, name in zip(q.return_items, ana.return_names):
        if isinstance(it.expr, FuncCall):
            out_cols.append(name)
        else:
            _, c, _ = ana.resolve_ref(it.expr)
            out_cols.append(f"{c} AS {name}")
    out = agg.selectExpr(*out_cols)
    return out.distinct() if q.distinct else out
