"""Lowering analyzed multievent queries to Spark DataFrame plans.

The engine does *not* hand Catalyst one big join soup (that is the baseline,
``baseline.py``). Instead — per paper §2.3 — it synthesizes one data query
per event pattern (a pruned scan under the pattern's event alias) and folds
them into a left-deep join in the order chosen by the pruning-power
scheduler, broadcasting sides whose row bound is small. Every filter and
join condition is the spark-dialect SQL text of ``expr``, the text the
synthesized big SQL is built from, parsed by ``F.expr``; the return clause
is the big SQL's select list (``e1.s_name AS p``), run by ``selectExpr``.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.analyzer import Analysis
from repro.core.expr import link_sql, pred_sql


def pattern_filter(preds: list) -> Column:
    """AND of all lowered predicates of one event pattern."""
    return F.expr(" AND ".join(pred_sql(p, "", "spark") for p in preds) or "TRUE")


def pattern_df(events: DataFrame, ana: Analysis, alias: str) -> DataFrame:
    """The synthesized data query for one event pattern: a pruned scan
    whose columns are qualified by the event alias (``e1.ts``), as in the
    big SQL's ``FROM events e1``, so N patterns join without name
    collisions."""
    return events.filter(pattern_filter(ana.pattern_preds[alias])).alias(alias)


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
    pending = link_sql(ana)
    for alias in order[1:]:
        nxt = pattern_dfs[alias]
        if alias in broadcast:
            nxt = F.broadcast(nxt)
        placed.add(alias)
        on = [cond for sides, cond in pending if placed.issuperset(sides)]
        pending = [(sides, cond) for sides, cond in pending
                   if not placed.issuperset(sides)]
        if on:
            joined = joined.join(nxt, on=F.expr(" AND ".join(on)), how="inner")
        else:
            joined = joined.crossJoin(nxt)
    assert not pending
    return joined


def project_return(joined: DataFrame, ana: Analysis) -> DataFrame:
    """Apply the return clause: each item as ``alias.col AS name``, the
    big SQL's select list, and deduplicate if ``distinct``."""
    cols = []
    for it, name in zip(ana.query.return_items, ana.return_names):
        alias, col, _ = ana.resolve_ref(it.expr)
        cols.append(f"{alias}.{col} AS {name}")
    out = joined.selectExpr(*cols)
    return out.distinct() if ana.query.distinct else out
