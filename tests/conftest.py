"""Shared fixtures for the test suite.

Data tiers:
* ``tiny_pdf``/``tiny`` — a hand-crafted ~16-event micro dataset with fully
  known semantics, for exact-result engine tests;
* ``events_pdf``/``events`` — the synthetic enterprise trace at SF 0.001
  (~20k events + injected attack), for integration/workload tests;
* ``store`` — both on-disk layouts of the SF 0.001 trace; ``store_of``
  writes any event frame to a new store, the engine's only source.

One agreement check: ``assert_agree`` compares the engine on both plan
branches and the Spark baseline with DuckDB's rows for the query's
synthesized SQL (``reference``). Result comparison itself
(``run_duckdb``, ``assert_same_rows``) lives in ``repro.oracle``.
"""
from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pandas as pd
import pytest

from repro.core import engine as engine_mod
from repro.core.baseline import oracle_sql, run_baseline
from repro.core.engine import AIQLEngine
from repro.monitor.generator import as_event_frame, gen_events_pdf
from repro.monitor.schema import DAY_MS, event_spark_schema
from repro.monitor.storage import EventStore
from repro.oracle import assert_same_rows, run_duckdb
from repro.workload.queries import QUERIES

DAY0 = 1523318400000  # 2018-04-10 00:00:00 UTC


def file_ev(agentid, ts, op, s_uid, s_name, path, amount=100):
    fuid = f"{agentid}-{path}"
    return dict(agentid=agentid, ts=ts, etype="file", op=op, s_uid=s_uid,
                s_name=s_name, o_uid=fuid, o_name=path, amount=amount)


def proc_ev(agentid, ts, op, s_uid, s_name, o_uid, o_name):
    return dict(agentid=agentid, ts=ts, etype="process", op=op, s_uid=s_uid,
                s_name=s_name, o_uid=o_uid, o_name=o_name)


def net_ev(agentid, ts, op, s_uid, s_name, ip, port, amount=10):
    return dict(agentid=agentid, ts=ts, etype="network", op=op, s_uid=s_uid,
                s_name=s_name, o_uid=f"{ip}:{port}", o_ip=ip, o_port=port,
                o_srcip=f"10.0.0.{agentid}", o_srcport=50000, amount=amount)


def executed_plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


@contextmanager
def partitioned(engine):
    """``engine.BROADCAST_ROWS`` and ``engine.INTERPRET_ROWS`` below the
    events of every (agentid, day) that has any, so ``engine`` reads every
    non-empty scope partitioned and compiled (the plan of a scope too large
    for one partition): no ``coalesce``, shuffle joins beside broadcast
    ones, and whole-stage code generation."""
    store = engine.store

    def scope_rows(agentid, day):
        t = int(pd.Timestamp(day, tz="UTC").timestamp() * 1000)
        return sum(store.scope_counts((t, t + DAY_MS), agentid).values())
    least = min(scope_rows(agentid, day) for agentid, day, _, _ in store.event_counts())
    with mock.patch.object(engine_mod, "BROADCAST_ROWS", least - 1), \
            mock.patch.object(engine_mod, "INTERPRET_ROWS", least - 1):
        yield


def reference(text: str, pdf: pd.DataFrame) -> pd.DataFrame:
    """DuckDB's rows for the synthesized SQL of ``text`` over ``pdf``."""
    return run_duckdb(oracle_sql(text), events=pdf)


def partitioned_rows(engine, text: str) -> pd.DataFrame:
    """The engine's rows on the plan of a scope larger than one partition."""
    with partitioned(engine):
        got = engine.execute(text)
        assert "Coalesce" not in executed_plan(got)
        assert got.sparkSession is engine.spark
        return got.toPandas()


def baseline_rows(engine, text: str) -> pd.DataFrame:
    """The Spark baseline's rows over the engine's flat layout."""
    return run_baseline(engine.spark, text, engine.store.events_flat()).toPandas()


def assert_agree(engine, text: str, want: pd.DataFrame) -> None:
    """The engine on both plan branches and the Spark baseline each return
    ``want``, the ``reference`` rows of ``text`` over the engine's events."""
    assert_same_rows(engine.execute(text).toPandas(), want)
    assert_same_rows(partitioned_rows(engine, text), want)
    assert_same_rows(baseline_rows(engine, text), want)


@pytest.fixture(scope="session")
def tiny_pdf() -> pd.DataFrame:
    t = DAY0
    return as_event_frame([
        proc_ev(1, t + 1_000, "start", "a1", "bash", "b1", "python"),
        file_ev(1, t + 2_000, "read", "b1", "python", "/tmp/x", 100),
        net_ev(1, t + 3_000, "write", "b1", "python", "9.9.9.9", 80, 200),
        file_ev(1, t + 500, "read", "a1", "bash", "/tmp/x", 50),
        file_ev(2, t + 1_500, "write", "c1", "curl", "/tmp/y", 10),
        net_ev(2, t + 2_500, "connect", "c1", "curl", "10.0.0.1", 443, 5),
        file_ev(1, t + 4_000, "write", "b1", "python", "/tmp/x", 300),
        proc_ev(1, t + 100, "execute", "d1", "svchost.exe", "a1", "bash"),
        file_ev(1, t + 5_000, "delete", "b1", "python", "/tmp/x", -1),
        net_ev(1, t + 6_000, "read", "b1", "python", "9.9.9.9", 80, 400),
        proc_ev(2, t + 7_000, "start", "c1", "curl", "e1", "sh"),
        file_ev(2, t + 8_000, "write", "e1", "sh", "/tmp/y", 20),
        net_ev(1, t + 9_000, "write", "a1", "bash", "8.8.8.8", 53, 60),
        file_ev(1, t + 86_400_000 + 1_000, "read", "b1", "python", "/tmp/x", 70),
        proc_ev(3, t + 10_000, "start", "f1", "nginx", "g1", "sh"),
        file_ev(3, t + 11_000, "read", "g1", "sh", "/etc/passwd", 30),
    ])


@pytest.fixture(scope="session")
def tiny(spark, tiny_pdf):
    return spark.createDataFrame(tiny_pdf, schema=event_spark_schema())


@pytest.fixture(scope="session")
def events_pdf() -> pd.DataFrame:
    return gen_events_pdf(sf=0.001, seed=0)


@pytest.fixture(scope="session")
def events(spark, events_pdf):
    return spark.createDataFrame(events_pdf, schema=event_spark_schema())


@pytest.fixture(scope="session")
def store_of(spark, tmp_path_factory):
    """``store_of(pdf)``: a new store holding the event frame ``pdf``."""
    def write(pdf: pd.DataFrame) -> EventStore:
        s = EventStore(spark, tmp_path_factory.mktemp("event_store"))
        s.write(spark.createDataFrame(pdf, schema=event_spark_schema()))
        return s
    return write


@pytest.fixture(scope="session")
def store(store_of, events_pdf) -> EventStore:
    return store_of(events_pdf)


@pytest.fixture(scope="session")
def engine(spark, store):
    return AIQLEngine(spark, store)


@pytest.fixture(scope="session")
def workload_want(events_pdf) -> dict[str, pd.DataFrame]:
    """Workload query name -> its ``reference`` rows over the SF 0.001
    trace, computed once for every test that checks one side against it."""
    return {q.name: reference(q.aiql, events_pdf) for q in QUERIES}


@pytest.fixture(scope="session")
def tiny_engine(spark, store_of, tiny_pdf):
    return AIQLEngine(spark, store_of(tiny_pdf))

