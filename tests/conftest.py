"""Shared fixtures for the test suite.

Data tiers:
* ``tiny_pdf``/``tiny`` — a hand-crafted ~16-event micro dataset with fully
  known semantics, for exact-result engine tests;
* ``events_pdf``/``events`` — the synthetic enterprise trace at SF 0.001
  (~20k events + injected attack), for integration/workload tests;
* ``store`` — both on-disk layouts of the SF 0.001 trace.

Result comparison (``run_duckdb``, ``assert_same_rows``) lives in
``repro.oracle``.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.monitor.generator import as_event_frame, gen_events_pdf
from repro.monitor.schema import event_spark_schema
from repro.monitor.storage import EventStore

DAY0 = 1523318400000  # 2018-04-10 00:00:00 UTC


def make_events(rows: list[dict]) -> pd.DataFrame:
    """Hand-crafted rows → schema-exact event frame. Each row needs at
    least agentid/ts/etype/op/s_uid/s_name; object columns default NULL."""
    return as_event_frame(pd.DataFrame(rows))


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


@pytest.fixture(scope="session")
def tiny_pdf() -> pd.DataFrame:
    t = DAY0
    return make_events([
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
def store(spark, events, tmp_path_factory) -> EventStore:
    s = EventStore(spark, tmp_path_factory.mktemp("event_store"))
    s.write(events)
    return s


@pytest.fixture(scope="session")
def engine(spark, events):
    from repro.core.engine import AIQLEngine
    return AIQLEngine(spark, events=events)


@pytest.fixture(scope="session")
def tiny_engine(spark, tiny):
    from repro.core.engine import AIQLEngine
    return AIQLEngine(spark, events=tiny)

