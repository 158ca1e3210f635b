"""Conciseness-metric tests (Table B machinery)."""
import pytest

from repro.core.baseline import baseline_sql
from repro.core.dependency import analyze_text
from repro.core.parser import parse
from repro.workload.conciseness import (
    aggregate_ratios,
    aiql_constraints,
    chars,
    measure,
    sql_constraints,
    words,
)
from repro.workload.queries import QUERIES


class TestTextMetrics:
    def test_words(self):
        assert words("a b  c\n d") == 4

    def test_chars_excludes_all_whitespace(self):
        assert chars("ab c\nd\te") == 5

    def test_sql_constraints_counts_comparisons(self):
        assert sql_constraints(
            "SELECT x AS y FROM t WHERE a = 1 AND b <> 2 AND c LIKE 'z' "
            "AND d <= 3") == 4

    def test_sql_constraints_ignores_aliases(self):
        assert sql_constraints("SELECT a AS b, c AS d FROM t") == 0


class TestAiqlConstraints:
    def test_paper_query1_count(self):
        # Query 1: time window + agentid + 5 bracket filters
        # (p1, p2, f1, p3, i1) + 3 temporal = 10
        from repro.workload.queries import query_by_name
        q = parse(query_by_name("q05_exfil_chain").aiql)
        assert aiql_constraints(q) == 10

    def test_within_counts_extra(self):
        q = parse('proc p read file f as e1\nproc q read file f as e2\n'
                  'with e1 before[5 min] e2\nreturn p')
        assert aiql_constraints(q) == 2

    def test_anomaly_counts_window_and_having(self):
        from repro.workload.queries import query_by_name
        q = parse(query_by_name("q01_anomaly_exfil").aiql)
        # time + agent + window/step(2) + dstip filter + having(1 cmp) = 6
        assert aiql_constraints(q) == 6

    def test_having_counted_from_its_clause_alone(self):
        # A string with "having" before the clause adds nothing: time +
        # agent + window/step(2) + 3 bracket filters + having(1 cmp) = 8.
        q = parse('(at "04/10/2018")\nagentid = 1\n'
                  'window = 1 min, step = 10 sec\n'
                  'proc p["%having%"] write ip i[dstport=443, dstip != "1.2.3.4"] as e\n'
                  'return p, avg(e.amount) as amt\ngroup by p\n'
                  'having amt > amt[1]')
        assert aiql_constraints(q) == 8


class TestWorkloadRatios:
    @pytest.fixture(scope="class")
    def rows(self):
        return [
            measure(q.name, analyze_text(q.aiql),
                    baseline_sql(q.aiql, "postgres"))
            for q in QUERIES
        ]

    def test_sql_never_more_concise(self, rows):
        for r in rows:
            assert r.sql_words >= r.aiql_words, r.name
            assert r.sql_chars >= r.aiql_chars, r.name
            assert r.sql_constraints >= r.aiql_constraints, r.name

    def test_aggregate_ratios_direction(self, rows):
        ratios = aggregate_ratios(rows)
        # Paper: >=3.0x constraints, 3.5x words, 5.2x chars. Shape check:
        # SQL is several times larger on every metric.
        assert ratios["constraints"] >= 2.0
        assert ratios["words"] >= 2.0
        assert ratios["chars"] >= 2.0

    def test_per_query_rows_complete(self, rows):
        assert len(rows) == 20 and all(r.aiql_constraints > 0 for r in rows)
