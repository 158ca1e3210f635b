"""Workload integration tests: all 20 investigation queries. Each query's
DuckDB reference (its synthesized SQL over the SF 0.001 trace, computed
once in ``workload_want``) must equal the engine's rows on both plan
branches (and, in ``test_baseline``, the Spark baseline's) and recover
the injected attack ground truth."""
import re

import pandas as pd
import pytest

from repro.core.baseline import oracle_sql
from repro.oracle import assert_same_rows
from repro.workload.queries import QUERIES, query_by_name
from tests.conftest import partitioned, partitioned_rows

NAMES = [q.name for q in QUERIES]


def match(got: pd.DataFrame, partial: dict) -> pd.DataFrame:
    sub = got
    for k, v in partial.items():
        sub = sub[sub[k] == v]
    return sub


class TestStructure:
    def test_twenty_queries(self):
        assert len(QUERIES) == 20

    def test_one_anomaly_nineteen_multievent(self):
        kinds = [q.kind for q in QUERIES]
        assert kinds.count("anomaly") == 1
        assert kinds.count("multievent") + kinds.count("dependency") == 19

    def test_three_dependency_queries(self):
        assert sum(q.kind == "dependency" for q in QUERIES) == 3

    def test_names_unique(self):
        assert len(set(NAMES)) == 20

    def test_every_attack_step_covered(self):
        assert {q.step for q in QUERIES} == {"a1", "a2", "a3", "a4", "a5"}

    def test_lookup(self):
        assert query_by_name("q05_exfil_chain").step == "a5"
        with pytest.raises(KeyError):
            query_by_name("nope")

    @pytest.mark.parametrize("name", NAMES)
    def test_parses_and_analyzes(self, name):
        from repro.core.analyzer import analyze
        ana = analyze(query_by_name(name).aiql)
        assert ana.return_names

    @pytest.mark.parametrize("name", NAMES)
    def test_sql_synthesizes(self, name):
        sql = oracle_sql(query_by_name(name).aiql)
        assert sql.startswith(("SELECT", "WITH"))


class TestInvestigation:
    @pytest.mark.parametrize("name", NAMES)
    def test_oracle_equivalence(self, engine, workload_want, name):
        """Engine result == DuckDB over the synthesized equivalent SQL."""
        got = engine.execute(query_by_name(name).aiql).toPandas()
        assert_same_rows(got, workload_want[name])

    @pytest.mark.parametrize("name", NAMES)
    def test_oracle_equivalence_partitioned(self, engine, workload_want, name):
        """The same, with each query's scope read as a larger one is."""
        got = partitioned_rows(engine, query_by_name(name).aiql)
        assert_same_rows(got, workload_want[name])

    @pytest.mark.parametrize("name", NAMES)
    def test_ground_truth_recovered(self, workload_want, name):
        """The reference rows, which the engine's equal, hold the injected
        attack's artifacts and none of the decoys."""
        q = query_by_name(name)
        got = workload_want[name]
        for exp in q.contains:
            assert len(match(got, exp)) >= 1, f"{name}: missing {exp}"
        for exp in q.absent:
            assert len(match(got, exp)) == 0, f"{name}: unexpected {exp}"

    @pytest.mark.parametrize("name", ["q08_creds_exfil", "q20_initial_compromise"])
    def test_executed_schedule(self, engine, name):
        """The engine's SQL runs in the planned schedule: the leftmost scan
        of the executed plan is the driving pattern's (named here by its
        operation, which no other pattern of the query has), and every
        broadcast side, and only those, is a broadcast hash join."""
        text = query_by_name(name).aiql
        with partitioned(engine):
            plan = engine.plan(text)
            ops = {ev.alias: ev.op for ev in plan.analysis.query.events}
            assert plan.order != list(ops)
            assert list(ops.values()).count(ops[plan.order[0]]) == 1
            # The adaptive plan's initial physical plan, before any stage runs.
            executed = (engine.execute(text)._jdf.queryExecution()
                        .executedPlan().inputPlan())
        leftmost = executed.collectLeaves().apply(0).dataFilters().mkString(" AND ")
        assert re.search(rf"\bop#\d+ = {ops[plan.order[0]]}\)", leftmost), leftmost
        assert executed.toString().count("BroadcastHashJoin") == len(plan.broadcast) > 0

    def test_investigation_narrative_a5(self, workload_want):
        """The paper's §3 investigation storyline end-to-end: the anomaly
        query flags powershell.exe; its reads reveal db.bak; db.bak's
        creator is the legitimate sqlservr.exe; the connection to XXX.129
        precedes the transfer."""
        assert "powershell.exe" in set(workload_want["q01_anomaly_exfil"]["p"])
        assert "/db/db.bak" in set(workload_want["q02_powershell_reads"]["f"])
        assert set(workload_want["q03_dump_creator"]["p"]) == {"sqlservr.exe"}
        assert len(workload_want["q04_connect_before_transfer"]) == 1
