"""Self-tests of the DuckDB result-equality oracle (provided module)."""
import pandas as pd
import pytest

from repro.oracle import assert_same_rows, run_duckdb


@pytest.fixture()
def df(spark):
    return spark.createDataFrame(
        pd.DataFrame({"k": [1, 2, 2], "v": [10.0, 20.0, 30.0]}))


class TestOracle:
    def test_equal_passes(self, df):
        t = pd.DataFrame({"k": [1, 2, 2], "v": [10.0, 20.0, 30.0]})
        assert_same_rows(df.toPandas(), run_duckdb("SELECT k, v FROM t", t=t))

    def test_row_order_ignored(self, df):
        t = pd.DataFrame({"k": [2, 2, 1], "v": [30.0, 20.0, 10.0]})
        assert_same_rows(df.toPandas(), run_duckdb("SELECT k, v FROM t", t=t))

    def test_column_order_ignored(self, df):
        t = pd.DataFrame({"v": [10.0, 20.0, 30.0], "k": [1, 2, 2]})
        assert_same_rows(df.toPandas(), run_duckdb("SELECT v, k FROM t", t=t))

    def test_value_mismatch_fails(self, df):
        t = pd.DataFrame({"k": [1, 2, 2], "v": [10.0, 20.0, 99.0]})
        with pytest.raises(AssertionError):
            assert_same_rows(df.toPandas(), run_duckdb("SELECT k, v FROM t", t=t))

    def test_missing_row_fails(self, df):
        t = pd.DataFrame({"k": [1, 2], "v": [10.0, 20.0]})
        with pytest.raises(AssertionError):
            assert_same_rows(df.toPandas(), run_duckdb("SELECT k, v FROM t", t=t))

    def test_column_name_mismatch_fails(self, df):
        t = pd.DataFrame({"k": [1, 2, 2], "v": [10.0, 20.0, 30.0]})
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_same_rows(df.toPandas(), run_duckdb("SELECT k, v AS other FROM t", t=t))

    def test_spark_input_table(self, spark, df):
        assert_same_rows(df.toPandas(), run_duckdb("SELECT k, v FROM t", t=df))

    def test_float_rounding_tolerated(self, spark):
        d = spark.createDataFrame(pd.DataFrame({"x": [0.1 + 0.2]}))
        t = pd.DataFrame({"x": [0.3]})
        assert_same_rows(d.toPandas(), run_duckdb("SELECT x FROM t", t=t))
