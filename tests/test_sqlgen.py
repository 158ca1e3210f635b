"""Equivalent-SQL synthesis tests: structure + executability + equivalence."""
import hashlib

import pytest

from repro.core.analyzer import analyze
from repro.core.baseline import baseline_sql, oracle_sql, run_baseline
from repro.core.sqlgen import anomaly_sql, equivalent_sql, multievent_sql
from repro.oracle import assert_same_rows, run_duckdb
from repro.workload.queries import QUERIES

AT = '(at "04/10/2018")\n'


def sql_of(text, dialect="duckdb"):
    return equivalent_sql(analyze(text), dialect)


class TestMultieventText:
    Q = (AT + 'agentid = 5\n'
         'proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1\n'
         'proc p2 write file f1["%backup1.dmp"] as evt2\n'
         'with evt1 before evt2\nreturn distinct p1, p2, f1')

    def test_one_table_ref_per_pattern(self):
        sql = sql_of(self.Q)
        assert "events evt1" in sql and "events evt2" in sql

    def test_uid_join_present(self):
        assert "evt1.o_uid = evt2.s_uid" in sql_of(self.Q)

    def test_temporal_present(self):
        assert "evt1.ts < evt2.ts" in sql_of(self.Q)

    def test_like_for_wildcards(self):
        sql = sql_of(self.Q)
        assert "evt1.s_name LIKE '%cmd.exe'" in sql
        assert "evt2.o_name LIKE '%backup1.dmp'" in sql

    def test_distinct(self):
        assert sql_of(self.Q).startswith("SELECT DISTINCT")

    def test_output_aliases(self):
        sql = sql_of(self.Q)
        for a in ("AS p1", "AS p2", "AS f1"):
            assert a in sql

    def test_global_constraints_per_pattern(self):
        sql = sql_of(self.Q)
        assert sql.count("agentid = 5") == 2  # once per pattern
        assert sql.count("ts >= ") == 2

    def test_within_renders_bound(self):
        q = (AT + 'proc p read file f as e1\nproc q read file f as e2\n'
             'with e1 before[5 min] e2\nreturn p')
        sql = sql_of(q)
        assert "e2.ts - e1.ts <= 300000" in sql

    def test_or_group_renders_parenthesized(self):
        q = AT + 'proc p["%a", "b"] read file f as e1\nreturn p'
        sql = sql_of(q)
        assert "(e1.s_name LIKE '%a' OR e1.s_name = 'b')" in sql

    def test_after_is_before_reversed(self):
        """``a after[d] b`` synthesizes the text of ``b before[d] a``."""
        q = (AT + 'proc p read file f as e1\nproc q read file f as e2\n'
             'with {}\nreturn p, q')
        after = analyze(q.format("e1 after[5 min] e2"))
        before = analyze(q.format("e2 before[5 min] e1"))
        for dialect in ("spark", "duckdb", "postgres"):
            assert equivalent_sql(after, dialect) == equivalent_sql(before, dialect)

    def test_custom_table_name(self):
        sql = multievent_sql(analyze(self.Q), "spark", table="t")
        assert "t evt1" in sql and "events" not in sql


class TestAnomalyText:
    Q = (AT + 'agentid = 5\nwindow = 1 min, step = 10 sec\n'
         'proc p write ip i[dstip="1.2.3.4"] as evt\n'
         'return p, avg(evt.amount) as amt\ngroup by p\n'
         'having amt > 2 * (amt + amt[1] + amt[2]) / 3')

    def test_spark_uses_explode(self):
        sql = sql_of(self.Q, "spark")
        assert "explode(sequence(" in sql and "unnest" not in sql

    def test_duckdb_uses_unnest(self):
        sql = sql_of(self.Q, "duckdb")
        assert "unnest(generate_series(" in sql and "explode" not in sql

    def test_postgres_uses_unnest(self):
        assert "unnest(generate_series(" in sql_of(self.Q, "postgres")

    def test_history_left_joins(self):
        sql = sql_of(self.Q)
        assert "LEFT JOIN agg h1 ON" in sql and "LEFT JOIN agg h2 ON" in sql
        assert "h1.wid = a.wid - 1" in sql and "h2.wid = a.wid - 2" in sql

    def test_group_by_entity_uid_and_name(self):
        sql = sql_of(self.Q)
        assert "GROUP BY wid, s_uid, s_name" in sql

    def test_having_rendered(self):
        sql = sql_of(self.Q)
        assert "(a.amt > ((2 * ((a.amt + h1.amt) + h2.amt)) / 3))" in sql

    def test_history_window_frames(self):
        sql = anomaly_sql(analyze(self.Q), "spark", history="window")
        assert "LEFT JOIN" not in sql
        assert "RANGE BETWEEN 1 PRECEDING AND 1 PRECEDING" in sql
        assert "RANGE BETWEEN 2 PRECEDING AND 2 PRECEDING" in sql

    def test_bad_dialect_raises(self):
        for text in (self.Q, TestMultieventText.Q):
            with pytest.raises(ValueError, match="unknown dialect"):
                baseline_sql(text, "oracle")


class TestExecutability:
    """Synthesized SQL must actually run — DuckDB here, Spark via
    test_baseline — and agree with the engine (via oracle tests)."""

    @pytest.mark.parametrize("name", [
        "q05_exfil_chain", "q09_backtrack_dumper", "q16_forward_ramification",
        "q01_anomaly_exfil",
    ])
    def test_duckdb_executes_workload_sql(self, events_pdf, name):
        from repro.workload.queries import query_by_name
        sql = oracle_sql(query_by_name(name).aiql)
        out = run_duckdb(sql, events=events_pdf)
        assert len(out) >= 1

    def test_spark_and_duckdb_dialects_agree(self, spark, events, events_pdf):
        text = (AT + 'agentid = 5\nwindow = 1 min, step = 10 sec\n'
                'proc p write ip i as evt\n'
                'return p, avg(evt.amount) as amt\ngroup by p\n'
                'having amt > amt[1]')
        a = run_baseline(spark, text, events).toPandas()
        b = run_duckdb(oracle_sql(text), events=events_pdf)
        assert_same_rows(a, b)


def test_synthesized_sql_is_pinned():
    """The big SQL of every workload query, in every dialect, is exactly
    the text these tests and Table B were measured on."""
    text = "".join(baseline_sql(q.aiql, d) for q in QUERIES
                   for d in ("spark", "duckdb", "postgres"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "da37b0b6e50612e7622809ee2bb366cff3dcf77a4275d8f542725128e275f816")
