"""Anomaly-query execution (paper §2.2.3, §2.3).

"The engine partitions the events into sliding windows by the timestamp,
computes the aggregate results, and enforces the filters."

Windows start every ``step`` and span ``window`` (they overlap when
``step < window``); an event is exploded into every window containing it.
The engine runs the query's synthesized SQL (``sqlgen.anomaly_sql``) over
the scoped source, but reads ``amt[k]``, the same group's aggregate k
windows earlier, from a window frame over the per-window aggregate
instead of the baseline's self-join; the DuckDB oracle, which runs the
join, checks that both agree, NULL group keys included. Over a scope the
engine reads as one partition (see ``engine``), the aggregate and the
history window run without a shuffle.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.analyzer import Analysis
from repro.core.compiler import sql_over
# ``window_bounds`` and ``group_cols`` are read from this module by the
# benchmark's per-operation work counts (``aiqlbench/workloads.py``).
from repro.core.expr import window_bounds  # noqa: F401
from repro.core.sqlgen import anomaly_sql


def group_cols(ana: Analysis) -> list[str]:
    """The physical grouping columns, as the analyzer lowered them."""
    return ana.group_cols


def run(spark: SparkSession, events: DataFrame, ana: Analysis) -> DataFrame:
    """Execute the analyzed anomaly query in ``spark`` over the (possibly
    store-pruned) event DataFrame."""
    return sql_over(spark, events,
                    lambda view: anomaly_sql(ana, "spark", view, history="window"))
