"""Data-model tests: event schema, the ``day`` partition key, and
operation/object-type validation."""
import pytest
from pyspark.sql import types as T

from repro.monitor.schema import (
    DAY_MS,
    EVENT_COLUMNS,
    day_label,
    day_labels,
    etype_for,
    event_arrow_schema,
    event_spark_schema,
)

DAY0 = 1523318400000  # 2018-04-10 00:00:00 UTC


class TestSchema:
    def test_column_count(self):
        assert len(EVENT_COLUMNS) == 16

    def test_spark_schema_matches_columns(self):
        s = event_spark_schema()
        assert [f.name for f in s.fields] == [n for n, _ in EVENT_COLUMNS]

    def test_ts_is_long(self):
        s = event_spark_schema()
        assert s["ts"].dataType == T.LongType()

    def test_agentid_is_int(self):
        s = event_spark_schema()
        assert s["agentid"].dataType == T.IntegerType()

    def test_all_nullable(self):
        assert all(f.nullable for f in event_spark_schema().fields)

    def test_arrow_schema_matches_columns(self):
        s = event_arrow_schema()
        assert s.names == [n for n, _ in EVENT_COLUMNS]
        assert all(f.nullable for f in s)


class TestDayKey:
    def test_label_is_utc_date(self):
        assert day_label(DAY0) == "2018-04-10"
        assert day_label(DAY0 - 1) == "2018-04-09"
        assert day_label(DAY0 + DAY_MS - 1) == "2018-04-10"

    def test_range_upper_bound_exclusive_at_midnight(self):
        assert day_labels(DAY0, DAY0 + DAY_MS) == ["2018-04-10"]
        assert day_labels(DAY0 + DAY_MS - 1, DAY0 + DAY_MS) == ["2018-04-10"]
        assert day_labels(DAY0, DAY0 + DAY_MS + 1) == ["2018-04-10", "2018-04-11"]

    def test_range_spans_days(self):
        assert day_labels(DAY0 - 1, DAY0 + 2 * DAY_MS) == [
            "2018-04-09", "2018-04-10", "2018-04-11"]


class TestEtypeFor:
    @pytest.mark.parametrize("op,obj,etype", [
        ("start", "proc", "process"),
        ("execute", "proc", "process"),
        ("read", "file", "file"),
        ("write", "file", "file"),
        ("delete", "file", "file"),
        ("read", "ip", "network"),
        ("write", "ip", "network"),
        ("connect", "ip", "network"),
    ])
    def test_valid(self, op, obj, etype):
        assert etype_for(op, obj) == etype

    @pytest.mark.parametrize("op,obj", [
        ("start", "file"), ("start", "ip"), ("execute", "file"),
        ("connect", "file"), ("connect", "proc"), ("delete", "ip"),
        ("delete", "proc"), ("read", "proc"), ("write", "proc"),
    ])
    def test_invalid(self, op, obj):
        with pytest.raises(ValueError):
            etype_for(op, obj)

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown operation"):
            etype_for("frob", "file")
