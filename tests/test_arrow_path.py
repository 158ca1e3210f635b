"""The Spark frame ``gen_events`` loads from the generator's Arrow table
must be row-identical to its pandas conversion (``gen_events_pdf``), and
the flat CSV baseline layout must preserve rows and NULLs exactly."""
import pandas as pd
import pytest

from repro.monitor.generator import _event_table, gen_events, gen_events_pdf
from repro.monitor.schema import event_spark_schema
from repro.oracle import assert_same_rows


@pytest.fixture(scope="module")
def arrow_df(spark):
    return gen_events(spark, sf=0.0005, seed=7)


@pytest.fixture(scope="module")
def pandas_df(spark):
    return spark.createDataFrame(gen_events_pdf(sf=0.0005, seed=7),
                                 schema=event_spark_schema())


class TestArrowEqualsPandas:
    def test_same_schema(self, arrow_df, pandas_df):
        assert arrow_df.schema == pandas_df.schema

    def test_same_rows(self, arrow_df, pandas_df):
        assert_same_rows(arrow_df.toPandas(), pandas_df.toPandas())

    def test_null_structure(self, arrow_df):
        pdf = arrow_df.toPandas()
        net = pdf[pdf["etype"] == "network"]
        assert net["o_ip"].notna().all() and net["o_name"].isna().all()
        proc = pdf[pdf["etype"] == "process"]
        assert proc["amount"].isna().all()


class TestToArrow:
    def test_empty_string_becomes_null(self):
        tbl = _event_table(sf=0.00005, n_hosts=5, seed=0, days=1, attack=True)
        o_name = tbl.column("o_name")
        assert o_name.null_count > 0
        assert tbl.column("etype").null_count == 0
        assert tbl.column("op").null_count == 0

    def test_schema_types(self):
        import pyarrow as pa
        tbl = _event_table(sf=0.00005, n_hosts=5, seed=0, days=1, attack=False)
        assert tbl.schema.field("agentid").type == pa.int32()
        assert tbl.schema.field("ts").type == pa.int64()
        assert tbl.schema.field("o_port").type == pa.int32()
        assert tbl.schema.field("amount").type == pa.int64()

    def test_even_batches(self):
        """One chunk per column, so Spark cuts the table into full
        10k-row Arrow batches (one partition each)."""
        tbl = _event_table(sf=0.001, n_hosts=10, seed=0, days=1, attack=True)
        assert [b.num_rows for b in tbl.to_batches(max_chunksize=10_000)] \
            == [10_000, 10_000, 211]

    def test_attack_names_not_truncated(self):
        tbl = _event_table(sf=0.00005, n_hosts=5, seed=0, days=1, attack=True)
        names = set(tbl.column("o_name").to_pylist())
        assert "cve-2015-1701.exe" in set(tbl.column("s_name").to_pylist()) \
            | names


class TestCsvLayout:
    def test_flat_rows_equal_partitioned(self, store):
        flat = store.events_flat().toPandas()
        part = store.events_partitioned().toPandas()
        assert_same_rows(flat, part)

    def test_flat_preserves_nulls(self, store, events_pdf):
        flat = store.events_flat()
        n_null = flat.filter("o_ip IS NULL").count()
        assert n_null == events_pdf["o_ip"].isna().sum()

    def test_flat_schema_exact(self, store):
        assert store.events_flat().schema == event_spark_schema()
