"""Multievent engine semantics on the hand-crafted micro dataset, each
cross-checked against the DuckDB oracle where it adds signal."""
import pytest

from repro.core.baseline import oracle_sql
from repro.core.engine import AIQLEngine
from repro.oracle import assert_same_rows, run_duckdb
from tests.conftest import DAY0

AT = '(at "04/10/2018")\n'


def rows(engine, text):
    return {tuple(r) for r in engine.execute(text).collect()}


class TestSingleEvent:
    def test_filter_by_subject(self, tiny_engine):
        got = rows(tiny_engine, AT + 'proc p["python"] read file f as e1\nreturn p, f')
        assert got == {("python", "/tmp/x")}

    def test_like_filter(self, tiny_engine):
        got = rows(tiny_engine, AT + 'proc p["%ch%"] read file f as e1\nreturn p')
        assert got == set()  # no file reads by svchost.exe in-day

    def test_or_default_filters(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'proc p["bash", "curl"] write file f as e1\nreturn p, f')
        assert got == {("curl", "/tmp/y")}

    def test_ip_attr_filters(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'proc p write ip i[dstip="9.9.9.9", dstport=80] as e1\n'
                        'return p, i, i.dst_port as port')
        assert got == {("python", "9.9.9.9", 80)}

    def test_event_attr_return(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'proc p["curl"] connect ip i as e1\n'
                        'return p, e1.agentid as host, e1.amount as amt')
        assert got == {("curl", 2, 5)}

    def test_global_agentid(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'agentid = 2\nproc p write file f as e1\nreturn p')
        assert got == {("curl",), ("sh",)}

    def test_per_event_agentid(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'proc p[agentid=3] read file f as e1\nreturn p, f')
        assert got == {("sh", "/etc/passwd")}

    def test_numeric_comparison_filter(self, tiny_engine):
        # bash's read is amount=50, python's is 100: only python survives.
        got = rows(tiny_engine,
                   AT + 'proc p read file f[amount > 60] as e1\nreturn p, f')
        assert got == {("python", "/tmp/x")}

    def test_time_window_excludes_next_day(self, tiny_engine):
        # /tmp/x is read again the next day; (at 04/10) must exclude it.
        got = tiny_engine.execute(
            AT + 'proc p["python"] read file f["/tmp/x"] as e1\nreturn e1.ts as ts'
        ).collect()
        assert [r["ts"] for r in got] == [DAY0 + 2_000]

    def test_from_to_range(self, tiny_engine):
        got = tiny_engine.execute(
            '(from "04/10/2018" to "04/12/2018")\n'
            'proc p["python"] read file f["/tmp/x"] as e1\nreturn e1.ts as ts'
        ).collect()
        assert sorted(r["ts"] for r in got) == [DAY0 + 2_000,
                                                DAY0 + 86_400_000 + 1_000]

    def test_no_time_window(self, tiny_engine):
        got = tiny_engine.execute(
            'proc p["python"] read file f["/tmp/x"] as e1\nreturn e1.ts as ts'
        ).count()
        assert got == 2

    def test_delete_event(self, tiny_engine):
        got = rows(tiny_engine, AT + 'proc p delete file f as e1\nreturn p, f')
        assert got == {("python", "/tmp/x")}


class TestJoins:
    def test_uid_join_not_name_join(self, tiny_engine):
        """Two 'sh' processes exist (hosts 2, 3); the shared variable must
        join on entity identity, never on the name."""
        got = rows(tiny_engine,
                   AT + 'proc a start proc s["sh"] as e1\n'
                        'proc s write file f as e2\nreturn a, s, f')
        assert got == {("curl", "sh", "/tmp/y")}

    def test_shared_object_file(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'proc a["bash"] read file f as e1\n'
                        'proc b["python"] read file f as e2\nreturn a, b, f')
        assert got == {("bash", "python", "/tmp/x")}

    def test_temporal_before_prunes(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'proc a["bash"] read file f as e1\n'
                        'proc b["python"] read file f as e2\n'
                        'with e2 before e1\nreturn a, b')
        assert got == set()  # bash read (t+500) precedes python read (t+2000)

    def test_temporal_after(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'proc a["bash"] read file f as e1\n'
                        'proc b["python"] read file f as e2\n'
                        'with e2 after e1\nreturn a, b')
        assert got == {("bash", "python")}

    def test_within_window(self, tiny_engine):
        base = (AT + 'proc a["bash"] read file f as e1\n'
                     'proc b["python"] read file f as e2\n'
                     'with e1 before[{d}] e2\nreturn a, b')
        assert rows(tiny_engine, base.format(d="2 sec")) == {("bash", "python")}
        assert rows(tiny_engine, base.format(d="1 sec")) == set()

    def test_three_event_chain(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'proc a start proc b["python"] as e1\n'
                        'proc b read file f as e2\n'
                        'proc b write ip i as e3\n'
                        'with e1 before e2, e2 before e3\nreturn a, b, f, i')
        assert got == {("bash", "python", "/tmp/x", "9.9.9.9")}

    def test_unconstrained_patterns_cross_join(self, tiny_engine):
        got = tiny_engine.execute(
            AT + 'proc a["bash"] read file f as e1\n'
                 'proc b["curl"] write file g as e2\nreturn a, b, f, g')
        assert {tuple(r) for r in got.collect()} == {
            ("bash", "curl", "/tmp/x", "/tmp/y")}

    def test_subject_shared_across_roles(self, tiny_engine):
        # d1 svchost.exe executes a1 bash; a1 bash reads /tmp/x later.
        got = rows(tiny_engine,
                   AT + 'proc d execute proc a as e1\n'
                        'proc a read file f as e2\n'
                        'with e1 before e2\nreturn d, a, f')
        assert got == {("svchost.exe", "bash", "/tmp/x")}


class TestOracleAgreement:
    @pytest.mark.parametrize("q", [
        'proc p read file f as e1\nreturn p, f',
        'proc p["bash"] read file f as e1\nreturn distinct p',
        'proc a start proc s["sh"] as e1\nproc s write file f as e2\nreturn a, s, f',
        'proc p write ip i as e1\nreturn p, i, i.dst_port as port',
        'agentid = 1\nproc p write ip i as e1\nreturn p, e1.amount as amt',
        'proc a start proc b as e1\nproc b read file f as e2\n'
        'with e1 before[1 hour] e2\nreturn a, b, f',
    ])
    def test_engine_matches_duckdb(self, tiny_engine, tiny_pdf, q):
        text = AT + q
        got = tiny_engine.execute(text).toPandas()
        want = run_duckdb(oracle_sql(text), events=tiny_pdf)
        assert_same_rows(got, want)


class TestPlanAndScheduling:
    Q = (AT + 'proc p read file f as e1\n'
              'proc q["python"] write file f as e2\n'
              'with e1 before e2\nreturn p, q, f')

    def test_counts_are_pattern_cardinalities(self, tiny_engine):
        # in-day file reads: bash+python on /tmp/x, sh on /etc/passwd
        p = tiny_engine.plan(self.Q)
        assert p.counts == {"e1": 3, "e2": 1}

    def test_most_selective_first(self, tiny_engine):
        assert tiny_engine.plan(self.Q).order == ["e2", "e1"]

    def test_driving_pattern_not_broadcast(self, tiny_engine):
        p = tiny_engine.plan(self.Q)
        assert p.order[0] not in p.broadcast
        assert set(p.order[1:]) == p.broadcast

    def test_broadcast_threshold_zero_disables(self, spark, tiny):
        eng = AIQLEngine(spark, events=tiny, broadcast_rows=0)
        p = eng.plan(self.Q)
        assert p.broadcast == set()
        got = {tuple(r) for r in eng.execute(self.Q).collect()}
        assert got == {("bash", "python", "/tmp/x"), ("python", "python", "/tmp/x")}

    def test_plan_on_anomaly_raises(self, tiny_engine):
        with pytest.raises(ValueError, match="multievent"):
            tiny_engine.plan(AT + 'window = 1 min, step = 10 sec\n'
                                  'proc p write ip i as e\n'
                                  'return p, avg(e.amount) as amt\ngroup by p')


class TestEngineConstruction:
    def test_needs_source(self, spark):
        with pytest.raises(ValueError, match="events DataFrame or an EventStore"):
            AIQLEngine(spark)

    def test_dependency_query_executes(self, tiny_engine):
        got = rows(tiny_engine,
                   AT + 'forward\n'
                        'proc a start proc b["python"] as e1\n'
                        'proc b read file f as e2\nreturn a, b, f')
        assert got == {("bash", "python", "/tmp/x")}
