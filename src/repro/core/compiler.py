"""Lowering analyzed multievent queries to Spark DataFrame plans.

The engine does *not* hand Catalyst one big join soup (that is the baseline,
``baseline.py``). Instead — per paper §2.3 — it synthesizes one data query
per event pattern (a pruned, prefixed scan) and folds them into a left-deep
join in the order chosen by the pruning-power scheduler, broadcasting sides
it has measured to be small.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.analyzer import Analysis, OrGroup, Pred
from repro.core.expr import SPARK_CMP


def pred_to_column(p) -> Column:
    """One lowered predicate → a Spark filter ``Column`` over raw columns."""
    if isinstance(p, OrGroup):
        out = None
        for sub in p.preds:
            c = pred_to_column(sub)
            out = c if out is None else (out | c)
        return out
    assert isinstance(p, Pred)
    c = F.col(p.col)
    if p.op == "like":
        return c.like(p.value)
    if p.op == "not like":
        return ~c.like(p.value)
    return SPARK_CMP[p.op](c, F.lit(p.value))


def pattern_filter(preds: list) -> Column:
    """AND of all lowered predicates of one event pattern."""
    out = None
    for p in preds:
        c = pred_to_column(p)
        out = c if out is None else (out & c)
    return out if out is not None else F.lit(True)


def pattern_df(events: DataFrame, ana: Analysis, alias: str) -> DataFrame:
    """The synthesized data query for one event pattern: pruned scan with
    every column prefixed ``<alias>__`` so N patterns can join without
    name collisions."""
    df = events.filter(pattern_filter(ana.pattern_preds[alias]))
    return df.select([F.col(c).alias(f"{alias}__{c}") for c in df.columns])


def temporal_condition(tc) -> Column:
    """``with a before b [within d]`` → timestamp predicate over prefixed
    columns."""
    l, r = (tc.left, tc.right) if tc.rel == "before" else (tc.right, tc.left)
    cond = F.col(f"{l}__ts") < F.col(f"{r}__ts")
    if tc.within_ms is not None:
        cond = cond & (F.col(f"{r}__ts") - F.col(f"{l}__ts") <= F.lit(tc.within_ms))
    return cond


def join_multievent(
    pattern_dfs: dict[str, DataFrame],
    ana: Analysis,
    order: list[str],
    broadcast: set[str] = frozenset(),
) -> DataFrame:
    """Fold the per-pattern DataFrames into one left-deep join.

    Every shared-variable uid equality and temporal predicate is applied at
    the earliest join where both sides are placed, so intermediate results
    shrink as fast as the constraint graph allows.
    """
    placed = {order[0]}
    joined = pattern_dfs[order[0]]
    pending_joins = list(ana.join_conds)
    pending_temporal = list(ana.query.temporal)
    for alias in order[1:]:
        nxt = pattern_dfs[alias]
        if alias in broadcast:
            nxt = F.broadcast(nxt)
        placed.add(alias)
        conds: list[Column] = []
        for jc in list(pending_joins):
            a1, c1, a2, c2 = jc
            if a1 in placed and a2 in placed:
                conds.append(F.col(f"{a1}__{c1}") == F.col(f"{a2}__{c2}"))
                pending_joins.remove(jc)
        for tc in list(pending_temporal):
            if tc.left in placed and tc.right in placed:
                conds.append(temporal_condition(tc))
                pending_temporal.remove(tc)
        if conds:
            on = conds[0]
            for c in conds[1:]:
                on = on & c
            joined = joined.join(nxt, on=on, how="inner")
        else:
            joined = joined.crossJoin(nxt)
    assert not pending_joins and not pending_temporal
    return joined


def project_return(joined: DataFrame, ana: Analysis) -> DataFrame:
    """Apply the return clause: resolve each item to its prefixed column,
    alias to the output name, and deduplicate if ``distinct``."""
    cols = []
    for it, name in zip(ana.query.return_items, ana.return_names):
        alias, col, _ = ana.resolve_ref(it.expr)
        cols.append(F.col(f"{alias}__{col}").alias(name))
    out = joined.select(cols)
    return out.distinct() if ana.query.distinct else out
