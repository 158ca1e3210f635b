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
    """Run the SQL text ``render(view)`` in ``spark`` over ``events``.

    ``events`` may belong to another session: the store opens its layouts
    in the caller's session, and the engine runs a small scope in a child
    session of it that generates no code (see ``engine``). So ``view`` is a
    global temp view (``spark.sql.globalTempDatabase``), which every
    session of the application sees, under a name unique to this call; it
    is dropped before the return, since classic Spark analyzes
    ``spark.sql`` eagerly and the result no longer needs it.
    (``spark.sql(text, src=events)`` would format the text and read
    ``{``/``}`` in string literals as fields.)"""
    name = f"aiql_{uuid.uuid4().hex}"
    events.createGlobalTempView(name)
    try:
        db = spark.conf.get("spark.sql.globalTempDatabase")
        return spark.sql(render(f"{db}.{name}"))
    finally:
        spark.catalog.dropGlobalTempView(name)


def join_multievent(spark: SparkSession, src: DataFrame, ana: Analysis,
                    order: list[str], broadcast: set[str] = frozenset()) -> DataFrame:
    """The query's result, run in ``spark``: its big SQL over ``src``,
    joined in ``order``, broadcasting ``broadcast``, projected to the
    return clause and deduplicated if ``distinct``."""
    return sql_over(spark, src,
                    lambda view: multievent_sql(ana, "spark", view, order, broadcast))


def project_return(joined: DataFrame, ana: Analysis) -> DataFrame:
    # Identity (the SQL projects); kept because aiqlbench's tracer wraps it.
    return joined
