"""Workload integration tests: all 20 investigation queries, each checked
for (1) oracle result-equivalence against the synthesized SQL in DuckDB via
``repro.oracle.assert_equivalent``, and (2) recovery of the injected attack
ground truth."""
import pandas as pd
import pytest

from repro.core.baseline import oracle_sql
from repro.oracle import assert_equivalent
from repro.workload.queries import QUERIES, query_by_name

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
        from repro.core.dependency import analyze_text
        ana = analyze_text(query_by_name(name).aiql)
        assert ana.return_names

    @pytest.mark.parametrize("name", NAMES)
    def test_sql_synthesizes(self, name):
        sql = oracle_sql(query_by_name(name).aiql)
        assert sql.startswith(("SELECT", "WITH"))


class TestInvestigation:
    @pytest.mark.parametrize("name", NAMES)
    def test_oracle_equivalence(self, engine, events_pdf, name):
        """Engine result == DuckDB over the synthesized equivalent SQL."""
        q = query_by_name(name)
        result = engine.execute(q.aiql)
        assert_equivalent(result, oracle_sql(q.aiql), events=events_pdf)

    @pytest.mark.parametrize("name", NAMES)
    def test_ground_truth_recovered(self, engine, name):
        q = query_by_name(name)
        got = engine.execute(q.aiql).toPandas()
        for exp in q.contains:
            assert len(match(got, exp)) >= 1, f"{name}: missing {exp}"
        for exp in q.absent:
            assert len(match(got, exp)) == 0, f"{name}: unexpected {exp}"

    def test_investigation_narrative_a5(self, engine):
        """The paper's §3 investigation storyline end-to-end: the anomaly
        query flags powershell.exe; its reads reveal db.bak; db.bak's
        creator is the legitimate sqlservr.exe; the connection to XXX.129
        precedes the transfer."""
        flagged = engine.execute(
            query_by_name("q01_anomaly_exfil").aiql).toPandas()
        assert "powershell.exe" in set(flagged["p"])
        reads = engine.execute(
            query_by_name("q02_powershell_reads").aiql).toPandas()
        assert "/db/db.bak" in set(reads["f"])
        creator = engine.execute(
            query_by_name("q03_dump_creator").aiql).toPandas()
        assert set(creator["p"]) == {"sqlservr.exe"}
        conn = engine.execute(
            query_by_name("q04_connect_before_transfer").aiql).toPandas()
        assert len(conn) == 1
