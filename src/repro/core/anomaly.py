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
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.analyzer import DEFAULT_ATTR, Analysis
from repro.core.ast import AttrRef, FuncCall
from repro.core.compiler import pattern_filter
from repro.core.expr import to_column

_AGG_FN = {"avg": F.avg, "sum": F.sum, "count": F.count,
           "min": F.min, "max": F.max}


def group_cols(ana: Analysis) -> list[str]:
    """Physical grouping columns. A bare entity variable groups by the
    *entity* — its uid — with the default attribute carried alongside for
    projection; an explicit ``var.attr`` groups by that column alone."""
    cols: list[str] = []

    def add(c: str) -> None:
        if c not in cols:
            cols.append(c)

    for g in ana.query.group_by:
        if g.var is None and g.attr in ana.etypes:
            var = g.attr
            _, uid = ana.entity_col(var, "uid")
            _, attr = ana.entity_col(var, DEFAULT_ATTR[ana.etypes[var]])
            add(uid)
            add(attr)
        else:
            _, c, _ = ana.resolve_ref(g)
            add(c)
    return cols


def agg_expr(name: str, fc: FuncCall, ana: Analysis):
    """One aggregate return item → a Spark aggregate expression."""
    if not fc.args:
        if fc.name != "count":
            raise ValueError(f"{fc.name}() needs an argument")
        return F.count(F.lit(1)).alias(name)
    ref = fc.args[0]
    assert isinstance(ref, AttrRef)
    _, col, _ = ana.resolve_ref(ref)
    return _AGG_FN[fc.name](F.col(col)).alias(name)


def window_bounds(ana: Analysis):
    """(t0, window, step, kmax): window k covers [t0 + k*step, +window)."""
    q = ana.query
    t0, t1 = q.time_range
    kmax = (t1 - t0 - 1) // q.step_ms
    return t0, q.window_ms, q.step_ms, kmax


def run(events: DataFrame, ana: Analysis) -> DataFrame:
    """Execute the analyzed anomaly query over the (possibly store-pruned)
    event DataFrame."""
    q = ana.query
    alias = q.events[0].alias
    t0, w, s, kmax = window_bounds(ana)
    df = events.filter(pattern_filter(ana.pattern_preds[alias]))
    lo = F.greatest(
        F.lit(0).cast("long"),
        (F.floor((F.col("ts") - F.lit(t0) - F.lit(w)) / F.lit(s)) + 1).cast("long"),
    )
    hi = F.least(
        F.lit(kmax).cast("long"),
        F.floor((F.col("ts") - F.lit(t0)) / F.lit(s)).cast("long"),
    )
    df = (
        df.withColumn("__lo", lo)
        .withColumn("__hi", hi)
        .filter(F.col("__lo") <= F.col("__hi"))
        .withColumn("wid", F.explode(F.sequence(F.col("__lo"), F.col("__hi"))))
    )
    gcols = group_cols(ana)
    aggs = [agg_expr(n, fc, ana) for n, fc in ana.agg_aliases.items()]
    agg = df.groupBy(*(["wid"] + gcols)).agg(*aggs)
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
        cond = to_column(
            q.having,
            resolve_name=lambda n: F.col(n),
            resolve_hist=lambda n, k: F.col(f"__h{k}__{n}"),
        )
        agg = agg.filter(cond)

    out_cols = []
    for it, name in zip(q.return_items, ana.return_names):
        if isinstance(it.expr, FuncCall):
            out_cols.append(F.col(name))
        else:
            _, c, _ = ana.resolve_ref(it.expr)
            out_cols.append(F.col(c).alias(name))
    out = agg.select(out_cols)
    return out.distinct() if q.distinct else out
