"""Baseline tests: the one-big-SQL plan executed by spark.sql must return
exactly the DuckDB reference rows, which ``test_workload`` checks the
engine against, for every workload query (Table A compares two
result-equivalent strategies)."""
import pytest

from repro.core.baseline import baseline_sql
from repro.oracle import assert_same_rows
from repro.workload.queries import QUERIES, query_by_name
from tests.conftest import baseline_rows

NAMES = [q.name for q in QUERIES]


class TestBaselineText:
    def test_spark_dialect_for_multievent_is_portable(self):
        a = baseline_sql(QUERIES[4].aiql, "spark")
        b = baseline_sql(QUERIES[4].aiql, "duckdb")
        assert a == b  # multievent SQL has no dialect-specific idiom

    def test_anomaly_dialects_differ_only_in_explosion(self):
        a = baseline_sql(QUERIES[0].aiql, "spark")
        b = baseline_sql(QUERIES[0].aiql, "duckdb")
        assert a != b
        assert a.replace("explode(sequence(", "unnest(generate_series(") == b


class TestBaselineEquivalence:
    @pytest.mark.parametrize("name", NAMES)
    def test_baseline_matches_engine(self, engine, workload_want, name):
        got = baseline_rows(engine, query_by_name(name).aiql)
        assert_same_rows(got, workload_want[name])
