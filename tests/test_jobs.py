"""Job entrypoint tests — the table harnesses run end-to-end at tiny scale."""
import math

import pytest

from repro.monitor.storage import EventStore


@pytest.fixture(scope="module")
def tiny_store(spark, tmp_path_factory):
    from jobs.generate_data import run
    return run(spark, 0.0002, str(tmp_path_factory.mktemp("job_store")),
               n_hosts=5, seed=1)


class TestGenerateData:
    def test_writes_both_layouts(self, tiny_store):
        n = tiny_store.events_flat().count()
        assert n == tiny_store.events_partitioned().count() > 4000


class TestRunQuery:
    def test_engine_mode(self, spark, tiny_store):
        from jobs.run_query import run
        from repro.workload.queries import query_by_name
        df = run(spark, str(tiny_store.base),
                 query_by_name("q18_ircd_exploit").aiql)
        assert {tuple(r) for r in df.collect()} == {("unrealircd", "bash")}

    def test_baseline_mode_same_rows(self, spark, tiny_store):
        from jobs.run_query import run
        from repro.workload.queries import query_by_name
        text = query_by_name("q18_ircd_exploit").aiql
        a = {tuple(r) for r in run(spark, str(tiny_store.base), text).collect()}
        b = {tuple(r) for r in
             run(spark, str(tiny_store.base), text, baseline=True).collect()}
        assert a == b


class TestTableA:
    def test_measure_and_render(self, spark, tiny_store):
        from jobs.table_a_performance import measure, render
        from repro.workload.queries import QUERIES
        rows = measure(spark, tiny_store, runs=1, queries=QUERIES[:3])
        assert len(rows) == 3
        assert all(r.aiql_s > 0 and r.sql_s > 0 for r in rows)
        # Every scope of this 5-host store is below INTERPRET_ROWS.
        assert all(r.interpreted for r in rows)
        assert all(r.aiql_compiles >= 0 and r.sql_compiles >= 0 for r in rows)
        text = render(rows, 1234)
        assert "TOTAL" in text and "speedup" in text and "21x" in text
        assert "interp" in text and "jit AIQL" in text

    def test_speedup_property(self):
        from jobs.table_a_performance import Row
        assert Row("x", "multievent", 2.0, 6.0).speedup == 3.0


class TestTableB:
    def test_measure_all(self):
        from jobs.table_b_conciseness import measure_all, render
        rows, ratios = measure_all()
        assert len(rows) == 20
        assert set(ratios) == {"constraints", "words", "chars"}
        text = render(rows, ratios)
        assert "RATIO" in text and "q05_exfil_chain" in text
        assert not any(math.isnan(v) for v in ratios.values())
