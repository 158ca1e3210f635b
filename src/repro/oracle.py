"""DuckDB correctness oracle and the one result canonicalizer.

``run_duckdb(sql, **tables)`` runs ``sql`` in DuckDB over ``tables``, and
``assert_same_rows(got, want)`` asserts two pandas results hold the same
rows in any order: the tests compare a Spark result
(``spark_df.toPandas()``) with DuckDB's rows this way. This catches
wrong results from a rewritten plan or a custom operator — "it ran" is
not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def run_duckdb(sql: str, **tables) -> pd.DataFrame:
    """Run ``sql`` in a fresh DuckDB over ``tables`` (name → frame)."""
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_same_rows(got: pd.DataFrame, want: pd.DataFrame) -> None:
    """Same columns and the same multiset of rows, in any order."""
    assert sorted(got.columns) == sorted(want.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(want.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
