"""Lowering analyzed multievent queries to one Spark SQL statement.

The engine hands Spark the same statement the big-SQL baseline runs
(``sqlgen.multievent_sql``), written in AIQL's schedule (paper §2.3): the
FROM/JOIN list follows the pruning-power join order, each join and
temporal condition sits in the ON clause of the earliest join where both
of its patterns are placed, and the sides whose row bound is small carry a
``BROADCAST`` hint. It runs over the partition-pruned scope of the query,
not the flat table, so what separates the engine from the baseline is the
schedule and the storage, not how a predicate is written.
"""
from __future__ import annotations

import uuid
from typing import Callable

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.analyzer import Analysis
from repro.core.expr import pattern_sql
from repro.core.sqlgen import multievent_sql


def pattern_filter(preds: list) -> Column:
    """AND of all lowered predicates of one event pattern."""
    return F.expr(pattern_sql(preds, "", "spark") or "TRUE")


def sql_over(spark: SparkSession, events: DataFrame,
             render: Callable[[str], str]) -> DataFrame:
    """Run the SQL text ``render(view)`` over ``events``, registered as a
    temp view under a name unique to this call and dropped before the
    return: classic Spark analyzes ``spark.sql`` eagerly, so the result no
    longer needs the view. (``spark.sql(text, src=events)`` would format
    the text and read ``{``/``}`` in string literals as fields.)"""
    view = f"aiql_{uuid.uuid4().hex}"
    events.createTempView(view)
    try:
        return spark.sql(render(view))
    finally:
        spark.catalog.dropTempView(view)


def join_multievent(src: DataFrame, ana: Analysis, order: list[str],
                    broadcast: set[str] = frozenset()) -> DataFrame:
    """The query's result: its big SQL over ``src``, joined in ``order``,
    broadcasting ``broadcast``, projected to the return clause and
    deduplicated if ``distinct``."""
    return sql_over(src.sparkSession, src,
                    lambda view: multievent_sql(ana, "spark", view, order, broadcast))


def project_return(joined: DataFrame, ana: Analysis) -> DataFrame:
    # Identity (the SQL projects); kept because aiqlbench's tracer wraps it.
    return joined
