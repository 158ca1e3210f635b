"""EventStore tests: layout roundtrips, partition pruning, layouts and the
event count table opened once per write, and that table checked against
Spark's aggregate."""
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from pyspark.sql import DataFrameReader, DataFrameWriter

from repro.core.analyzer import analyze
from repro.core.compiler import pattern_filter
from repro.core.engine import AIQLEngine
from repro.monitor import storage
from repro.monitor.generator import as_event_frame
from repro.monitor.storage import COUNT_KEYS, EventStore
from repro.workload.queries import QUERIES, query_by_name
from tests.conftest import DAY0, file_ev

MULTI_PATTERN = [q.name for q in QUERIES
                 if len(analyze(q.aiql).query.events) > 1]


def plan_of(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


class TestRoundtrip:
    def test_flat_preserves_rows(self, store, events):
        assert store.events_flat().count() == events.count()

    def test_partitioned_preserves_rows(self, store, events):
        assert store.events_partitioned().count() == events.count()
        assert sum(store.event_counts().values()) == events.count()

    def test_same_rows_both_layouts(self, store):
        flat = {r["eid"] for r in store.events_flat().select("eid").collect()}
        part = {r["eid"] for r in store.events_partitioned().select("eid").collect()}
        assert flat == part

    def test_partitioned_has_all_columns(self, store, events):
        assert set(store.events_partitioned().columns) == set(events.columns)

    def test_special_characters_survive_both_layouts(self, store_of):
        """A name may hold line breaks, the CSV separator, quotes and
        backslashes, or be empty: the flat layout keeps each in its one
        row, and keeps NULL apart from the empty string."""
        names = ["line\nbreak", "crlf\r\nbreak", "a,b", 'say "hi"',
                 "o'brien", "c:\\temp\\", 'a\\"b', "plain", ""]
        s = store_of(as_event_frame([file_ev(1, DAY0 + i, "read", "a1", "bash", n)
                                     for i, n in enumerate(names)]))
        assert s.events_flat().count() == len(names)
        cols = ["ts", "o_name"]
        flat = sorted(tuple(r) for r in s.events_flat().select(cols).collect())
        part = sorted(tuple(r) for r in s.events_partitioned().select(cols).collect())
        assert flat == part
        assert [n for _, n in part] == names
        # A file event has no network object: NULL string and int columns.
        assert s.events_flat().filter("o_ip IS NULL AND o_port IS NULL").count() == len(names)

    def test_values_survive_roundtrip(self, store, events_pdf):
        got = (store.events_partitioned()
               .filter("s_uid = '5-osql-atk'").collect())
        assert len(got) == len(events_pdf[events_pdf["s_uid"] == "5-osql-atk"])
        assert all(r["o_name"] == "/db/backup1.dmp" for r in got
                   if r["op"] == "write")


class TestPruning:
    def test_agent_filter_rows(self, store, events_pdf):
        n = store.events_partitioned(agentid=5).count()
        assert n == (events_pdf["agentid"] == 5).sum()

    def test_time_filter_rows(self, store, events_pdf):
        tr = (DAY0, DAY0 + 86_400_000)
        n = store.events_partitioned(time_range=tr).count()
        assert n == (events_pdf["day"] == "2018-04-10").sum()

    def test_combined_filters(self, store, events_pdf):
        tr = (DAY0, DAY0 + 86_400_000)
        n = store.events_partitioned(time_range=tr, agentid=3).count()
        want = ((events_pdf["agentid"] == 3)
                & (events_pdf["day"] == "2018-04-10")).sum()
        assert n == want

    def test_agent_filter_becomes_partition_filter(self, store):
        plan = plan_of(store.events_partitioned(agentid=5))
        assert "PartitionFilters" in plan
        assert "agentid" in plan.split("PartitionFilters")[1][:200]

    def test_day_filter_becomes_partition_filter(self, store):
        plan = plan_of(
            store.events_partitioned(time_range=(DAY0, DAY0 + 86_400_000)))
        assert "day" in plan.split("PartitionFilters")[1][:300]

    def test_multiday_range_lists_each_day(self, spark, tmp_path):
        from repro.monitor.generator import gen_events
        df = gen_events(spark, sf=0.0005, days=3, attack=False, n_hosts=3)
        s = EventStore(spark, tmp_path)
        s.write(df)
        two = s.events_partitioned(
            time_range=(DAY0, DAY0 + 2 * 86_400_000))
        days = {r["day"] for r in two.select("day").distinct().collect()}
        assert days == {"2018-04-10", "2018-04-11"}


class TestOpenedOnce:
    """A store lists each layout on its first read and keeps it until its
    own next ``write``."""

    Q = '(at "04/10/2018")\nproc p read file f as e1\nreturn p, f'

    @pytest.fixture
    def reads(self, monkeypatch):
        """Calls of ``DataFrameReader.parquet``/``csv`` since the test began."""
        calls = {"parquet": 0, "csv": 0}
        for name in calls:
            fn = getattr(DataFrameReader, name)

            def counted(*a, __fn=fn, __name=name, **kw):
                calls[__name] += 1
                return __fn(*a, **kw)
            monkeypatch.setattr(DataFrameReader, name, counted)
        return calls

    def test_many_queries_one_listing(self, spark, tmp_path, tiny, reads):
        s = EventStore(spark, tmp_path)
        s.write(tiny)
        eng = AIQLEngine(spark, store=s)
        for _ in range(3):
            eng.execute(self.Q).collect()
            s.events_partitioned(agentid=2).count()
            s.events_flat().count()
        assert reads == {"parquet": 1, "csv": 1}

    def test_write_reopens(self, spark, tmp_path, tiny, reads):
        s = EventStore(spark, tmp_path)
        s.write(tiny)
        eng = AIQLEngine(spark, store=s)
        assert len(eng.execute(self.Q).collect()) == 3
        s.write(tiny.filter("agentid = 1"))
        assert len(eng.execute(self.Q).collect()) == 2
        assert s.events_flat().count() == tiny.filter("agentid = 1").count()
        assert reads == {"parquet": 2, "csv": 1}

    def test_failed_write_drops_layouts(self, spark, tmp_path, tiny, reads,
                                        monkeypatch):
        s = EventStore(spark, tmp_path)
        s.write(tiny)
        assert s.events_partitioned().count() == tiny.count()
        assert sum(s.event_counts().values()) == tiny.count()

        def fail(*a, **kw):
            raise OSError("disk full")
        # The partitioned layout is rewritten, then the flat one fails.
        monkeypatch.setattr(DataFrameWriter, "csv", fail)
        with pytest.raises(OSError):
            s.write(tiny.filter("agentid = 1"))
        n = tiny.filter("agentid = 1").count()
        assert s.events_partitioned().count() == n
        assert sum(s.event_counts().values()) == n
        assert reads["parquet"] == 2


class TestEventCounts:
    """The count table behind the scheduler's row bounds."""

    @pytest.mark.parametrize("name", MULTI_PATTERN)
    def test_bounds_cover_pattern_rows(self, spark, store, name):
        plan = AIQLEngine(spark, store=store).plan(query_by_name(name).aiql)
        q, preds = plan.analysis.query, plan.analysis.pattern_preds
        src = store.events_partitioned(q.time_range, q.agentid)
        for alias, bound in plan.counts.items():
            assert bound >= src.filter(pattern_filter(preds[alias])).count(), alias

    def test_rewrite_refreshes_bounds(self, spark, tmp_path, tiny):
        s = EventStore(spark, tmp_path)
        s.write(tiny)
        eng = AIQLEngine(spark, store=s)
        q = ('(at "04/10/2018")\nproc p read file f as e1\n'
             'proc q write file f as e2\nreturn p, q')
        assert eng.plan(q).counts == {"e1": 3, "e2": 3}
        s.write(tiny.filter("agentid = 1"))
        assert eng.plan(q).counts == {"e1": 2, "e2": 1}

    def test_concurrent_first_calls_count_once(self, spark, tmp_path, tiny,
                                               monkeypatch):
        s = EventStore(spark, tmp_path)
        s.write(tiny)
        calls, count_events = [], storage.count_events

        def count(path):
            calls.append(1)
            return count_events(path)
        monkeypatch.setattr(storage, "count_events", count)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                tables = [f.result(timeout=120)
                          for f in [pool.submit(s.event_counts) for _ in range(16)]]
        finally:
            sys.setswitchinterval(old)
        assert len(calls) == 1
        assert all(t is tables[0] for t in tables)
        assert sum(tables[0].values()) == tiny.count()

    @pytest.mark.parametrize("source", ["store", "tiny_engine"])
    def test_arrow_counts_equal_spark_aggregate(self, request, source):
        """Arrow's per-file count is the table Spark's aggregate over the
        partitioned layout gives, key types included."""
        s = request.getfixturevalue(source)
        s = getattr(s, "store", s)
        want = {tuple(r[:-1]): r[-1] for r in
                s.events_partitioned().groupBy(*COUNT_KEYS).count().collect()}
        assert s.event_counts() == want
        assert {tuple(map(type, k)) for k in s.event_counts()} == {(int, str, str, str)}
