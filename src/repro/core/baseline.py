"""The "one big SQL" baseline (the paper's PostgreSQL comparison side).

Executes the synthesized semantically-equivalent SQL with ``spark.sql``
over the *flat, unpartitioned* event table: every event pattern becomes a
full self-join of the whole table, all constraints mixed in one WHERE, no
partition pruning, no measured broadcasts (the session disables automatic
broadcast joins) — i.e. exactly the semantics-agnostic execution the paper
argues against, on the same substrate as the AIQL engine so Table A
compares scheduling strategies, not runtimes.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.analyzer import analyze
from repro.core.compiler import sql_over
from repro.core.sqlgen import equivalent_sql


def baseline_sql(text: str, dialect: str, table: str = "events") -> str:
    """The big-SQL equivalent of an AIQL query, in the given dialect:
    the front end (``analyzer.analyze``), then ``sqlgen``."""
    return equivalent_sql(analyze(text), dialect, table)


def run_baseline(spark: SparkSession, text: str, events: DataFrame) -> DataFrame:
    """Execute the big-SQL equivalent over ``events`` and return the result
    DataFrame."""
    return sql_over(spark, events, lambda view: baseline_sql(text, "spark", view))


def oracle_sql(text: str, table: str = "events") -> str:
    """The DuckDB-dialect equivalent. DuckDB's rows for it are the one
    reference: the tests compare the engine on both plan branches and
    ``run_baseline`` with them (``tests/conftest.py::assert_agree``), and
    ``aiqlbench`` checks every operation against them."""
    return baseline_sql(text, "duckdb", table)
