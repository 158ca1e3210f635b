"""A query caches nothing: after ``plan``, ``execute`` and ``collect``,
Spark holds no more persistent RDDs than before, for multievent,
single-pattern and anomaly queries alike, and with threads sharing one
engine. Planning runs no Spark job, even on a freshly written store, and
the store computes its event count table once per ``write``. A query over
a small scope runs in one partition: no shuffle, and one job for a single
pattern; over a smaller one it runs interpreted: no Java is compiled, and
the caller's session keeps its settings."""
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import engine as engine_mod
from repro.core.engine import INTERPRETED_CONF, AIQLEngine
from repro.monitor.storage import EventStore
from repro.session import janino_compiles
from repro.workload.queries import QUERIES, query_by_name
from tests.conftest import executed_plan

AT = '(at "04/10/2018")\n'

TWO_PATTERN = (AT + 'proc p read file f as e1\n'
                    'proc q["python"] write file f as e2\n'
                    'with e1 before e2\nreturn p, q, f')
OTHER_TWO_PATTERN = (AT + 'proc p start proc c as e1\n'
                          'proc c write file f as e2\n'
                          'with e1 before e2\nreturn p, c, f')
SINGLE_PATTERN = AT + 'proc p read file f as e1\nreturn p'
ANOMALY = (AT + 'window = 1 min, step = 10 sec\n'
                'proc p write ip i as e\n'
                'return p, avg(e.amount) as amt\ngroup by p\n'
                'having amt > amt[1]')


def persisted(spark) -> int:
    """Number of RDDs Spark currently holds persisted."""
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def jobs_started(spark) -> int:
    """Spark jobs submitted so far by this SparkContext."""
    return spark.sparkContext._jsc.sc().dagScheduler().numTotalJobs()


@pytest.fixture
def cached(spark):
    """Persistent RDDs added since the test started."""
    before = persisted(spark)
    return lambda: persisted(spark) - before


def rows(df) -> set:
    return {tuple(r) for r in df.collect()}


def assert_history_window(plan: str) -> None:
    """q01's ``amt[1]`` is read by a window over the aggregate, not by a
    self-join."""
    assert "Window" in plan
    assert "SortMergeJoin" not in plan and "BroadcastHashJoin" not in plan


class TestPinning:
    def test_multievent_pins_nothing(self, tiny_engine, cached):
        r = tiny_engine.execute(TWO_PATTERN)
        assert rows(r) == {("bash", "python", "/tmp/x"),
                           ("python", "python", "/tmp/x")}
        assert cached() == 0

    def test_anomaly_pins_nothing(self, tiny_engine, cached):
        tiny_engine.execute(ANOMALY).collect()
        assert cached() == 0

    def test_anomaly_without_history_pins_nothing(self, tiny_engine, cached):
        r = tiny_engine.execute(AT + 'window = 1 min, step = 10 sec\n'
                                     'proc p write ip i as e\n'
                                     'return p, avg(e.amount) as amt\ngroup by p')
        r.collect()
        assert cached() == 0

    def test_live_results_pin_nothing(self, tiny_engine, cached):
        live = [tiny_engine.execute(q) for q in (TWO_PATTERN, OTHER_TWO_PATTERN,
                                                 SINGLE_PATTERN, ANOMALY)]
        for df in live:
            df.collect()
        assert cached() == 0

    def test_threads_share_one_engine(self, spark, tiny_engine, cached):
        eng = AIQLEngine(spark, tiny_engine.store)
        queries = [TWO_PATTERN, OTHER_TWO_PATTERN, SINGLE_PATTERN, ANOMALY]
        want = [rows(tiny_engine.execute(q)) for q in queries]
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda q: rows(eng.execute(q)), queries,
                                timeout=300))
        assert got == want
        assert cached() == 0

    def test_plan_pins_nothing(self, tiny_engine, cached):
        tiny_engine.plan(TWO_PATTERN)
        assert cached() == 0

    def test_single_pattern_pins_nothing(self, tiny_engine, cached):
        r = tiny_engine.execute(SINGLE_PATTERN)
        r.collect()
        assert cached() == 0

    def test_results_correct_across_sequential_queries(self, tiny_engine):
        a = rows(tiny_engine.execute(TWO_PATTERN))
        tiny_engine.execute(ANOMALY).collect()
        b = rows(tiny_engine.execute(TWO_PATTERN))
        assert a == b


class TestNoProbe:
    def test_plan_runs_no_job_once_counted(self, spark, tiny_engine):
        before = jobs_started(spark)
        tiny_engine.plan(TWO_PATTERN)
        tiny_engine.plan(OTHER_TWO_PATTERN)
        tiny_engine.execute(TWO_PATTERN)  # lazy: builds the plan, runs nothing
        assert jobs_started(spark) == before

    def test_fresh_store_runs_no_job_before_collect(self, spark, store_of,
                                                    events_pdf):
        """The count table is read without Spark: on a store just written,
        neither ``plan`` nor ``execute`` of any workload query starts a
        job; each query's own job starts at ``collect``."""
        eng = AIQLEngine(spark, store_of(events_pdf))
        before = jobs_started(spark)
        eng.plan(query_by_name("q05_exfil_chain").aiql)
        assert jobs_started(spark) == before
        for q in QUERIES:
            eng.execute(q.aiql)
        assert jobs_started(spark) == before

    def test_counts_once_per_store_until_write(self, spark, tiny, tmp_path):
        store = EventStore(spark, tmp_path)
        store.write(tiny)
        table = store.event_counts()
        before = jobs_started(spark)
        AIQLEngine(spark, store=store).plan(TWO_PATTERN)
        AIQLEngine(spark, store=store).plan(OTHER_TWO_PATTERN)
        assert jobs_started(spark) == before
        assert store.event_counts() is table
        store.write(tiny)
        assert store.event_counts() is not table


class TestOnePartition:
    """Most workload queries name one host and one day: a scope of at most
    ``BROADCAST_ROWS`` events, read as one partition."""

    @pytest.mark.parametrize("name", ["q02_powershell_reads", "q01_anomaly_exfil"])
    def test_no_shuffle(self, engine, name):
        """``return distinct`` and the anomaly aggregate and history window
        run in the scan's one partition."""
        plan = executed_plan(engine.execute(query_by_name(name).aiql))
        assert "Coalesce 1" in plan
        assert "Exchange hashpartitioning" not in plan
        if name == "q01_anomaly_exfil":
            assert_history_window(plan)

    def test_larger_scope_shuffles(self, engine, monkeypatch):
        monkeypatch.setattr(engine_mod, "BROADCAST_ROWS", 0)
        for name in ("q02_powershell_reads", "q01_anomaly_exfil"):
            plan = executed_plan(engine.execute(query_by_name(name).aiql))
            assert "Coalesce" not in plan
            assert "Exchange hashpartitioning" in plan
        assert_history_window(plan)

    def test_single_pattern_distinct_is_one_job(self, spark, engine):
        before = jobs_started(spark)
        assert engine.execute(
            query_by_name("q02_powershell_reads").aiql).collect()
        assert jobs_started(spark) == before + 1

    @pytest.mark.parametrize("name", ["q02_powershell_reads", "q05_exfil_chain"])
    @pytest.mark.parametrize("source", ["tiny_engine", "engine"])
    def test_plan_records_the_decision(self, request, monkeypatch, source, name):
        eng = request.getfixturevalue(source)
        text = query_by_name(name).aiql
        plan = eng.plan(text)
        q = plan.analysis.query
        want = sum(eng.store.scope_counts(q.time_range, q.agentid).values())
        assert (plan.scope_rows, plan.one_partition, plan.interpreted) == \
            (want, True, True)
        monkeypatch.setattr(engine_mod, "INTERPRET_ROWS", plan.scope_rows - 1)
        replanned = eng.plan(text)
        assert (replanned.one_partition, replanned.interpreted) == (True, False)
        monkeypatch.setattr(engine_mod, "BROADCAST_ROWS", plan.scope_rows - 1)
        assert eng.plan(text).one_partition is False


HOST = 'agentid = 1\n' + AT


class TestInterpreted:
    """A scope of at most ``INTERPRET_ROWS`` events runs in the engine's
    interpreting session. Each query below has a shape no other test runs
    (an integer literal is written into the generated Java), so compiling
    it would compile new classes."""

    FRESH = {
        "multievent": (HOST + 'proc p[pid != {n}] start proc q as e1\n'
                              'proc q read file f as e2\n'
                              'with e1 before e2\nreturn distinct p, f'),
        "anomaly": (HOST + 'window = 1 min, step = 10 sec\n'
                           'proc p write ip i as e\n'
                           'return p, sum(e.amount) as amt\ngroup by p\n'
                           'having amt > {n} and amt > amt[1]'),
    }

    @pytest.mark.parametrize("kind, n", [("multievent", 7_000_001),
                                          ("anomaly", 7_000_011)])
    def test_small_scope_compiles_no_java(self, spark, engine, monkeypatch,
                                          kind, n):
        """The setting ``factoryMode=NO_CODEGEN`` is internal to Spark: a
        version that ignored it would compile here and fail this test.

        One class has no interpreted form in Spark 4.1: the row joiner of a
        partial aggregate (``GenerateUnsafeRowJoiner``). It is keyed by the
        group and buffer schemas, not by the query, so the anomaly query
        compiles it at most once, and the same query with another literal
        compiles nothing."""
        def run(k: int):
            df = engine.execute(self.FRESH[kind].format(n=k))
            df.collect()
            return df

        q = engine.analyze(self.FRESH[kind].format(n=n)).query
        assert sum(engine.store.scope_counts(q.time_range, q.agentid).values()) \
            <= engine_mod.INTERPRET_ROWS
        before = janino_compiles(spark)
        run(n)
        assert janino_compiles(spark) - before <= (kind == "anomaly")
        before = janino_compiles(spark)
        assert "*(" not in executed_plan(run(n + 1))
        assert janino_compiles(spark) == before
        # The same query, compiled: the whole-stage marker, and new classes.
        monkeypatch.setattr(engine_mod, "INTERPRET_ROWS", 0)
        assert "*(" in executed_plan(run(n + 2))
        assert janino_compiles(spark) > before

    def test_caller_settings_unchanged(self, spark, engine):
        before = {k: engine.spark.conf.get(k) for k in INTERPRETED_CONF}
        for q in (SINGLE_PATTERN, TWO_PATTERN, ANOMALY):
            engine.execute(q).collect()
        assert {k: engine.spark.conf.get(k) for k in INTERPRETED_CONF} == before
        assert engine.spark.conf.get("spark.sql.codegen.wholeStage") == "true"

    def test_interpreting_session_has_the_callers_settings(self, spark, store):
        key = "spark.sql.shuffle.partitions"
        old = spark.conf.get(key)
        spark.conf.set(key, "7")
        try:
            child = AIQLEngine(spark, store).interpreting
        finally:
            spark.conf.set(key, old)
        assert child.conf.get(key) == "7"
        assert {k: child.conf.get(k) for k in INTERPRETED_CONF} == INTERPRETED_CONF
