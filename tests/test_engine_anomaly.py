"""Anomaly-engine semantics: sliding windows, aggregates, history access.

Uses a purpose-built micro trace with hand-computable window contents:
window = 10 sec, step = 5 sec over events at known offsets. A second micro
trace adds connections with a NULL destination port, a key that history
access must never match (as in the equi-join SQL the oracle runs), and is
the input of the generated-query check.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import oracle_sql
from repro.core.engine import AIQLEngine
from repro.monitor.schema import event_spark_schema
from repro.oracle import assert_same_rows, run_duckdb
from tests.conftest import DAY0, make_events, net_ev

AT = '(at "04/10/2018")\n'
SEC = 1_000


def win_rows():
    # proc A writes to 1.1.1.1: amounts 10 @0s, 20 @6s, 30 @12s
    # proc B writes to 1.1.1.1: amount 100 @0s only
    # proc C (steady): 5 every 5s for 60s
    rows = [
        net_ev(1, DAY0 + 0 * SEC, "write", "A", "procA", "1.1.1.1", 80, 10),
        net_ev(1, DAY0 + 6 * SEC, "write", "A", "procA", "1.1.1.1", 80, 20),
        net_ev(1, DAY0 + 12 * SEC, "write", "A", "procA", "1.1.1.1", 80, 30),
        net_ev(1, DAY0 + 0 * SEC, "write", "B", "procB", "1.1.1.1", 80, 100),
    ]
    return rows + [net_ev(1, DAY0 + k * 5 * SEC, "write", "C", "procC",
                          "1.1.1.1", 80, 5) for k in range(13)]


@pytest.fixture(scope="module")
def win_pdf():
    return make_events(win_rows())


@pytest.fixture(scope="module")
def win_engine(spark, win_pdf):
    df = spark.createDataFrame(win_pdf, schema=event_spark_schema())
    return AIQLEngine(spark, events=df)


@pytest.fixture(scope="module")
def mixed_pdf():
    # procD and procE write to ports that are NULL (rising amounts), or 443.
    rows = [
        net_ev(1, DAY0 + 1 * SEC, "write", "D", "procD", "2.2.2.2", None, 10),
        net_ev(1, DAY0 + 7 * SEC, "write", "D", "procD", "2.2.2.2", None, 40),
        net_ev(1, DAY0 + 13 * SEC, "write", "E", "procE", "3.3.3.3", None, 90),
        net_ev(1, DAY0 + 18 * SEC, "write", "D", "procD", "2.2.2.2", None, 160),
        net_ev(1, DAY0 + 26 * SEC, "write", "D", "procD", "2.2.2.2", None, 300),
        net_ev(1, DAY0 + 4 * SEC, "write", "E", "procE", "3.3.3.3", 443, 7),
        net_ev(1, DAY0 + 9 * SEC, "write", "E", "procE", "3.3.3.3", 443, 3),
        net_ev(1, DAY0 + 16 * SEC, "write", "D", "procD", "3.3.3.3", 443, 8),
    ]
    return make_events(win_rows() + rows)


@pytest.fixture(scope="module")
def mixed_engine(spark, mixed_pdf):
    df = spark.createDataFrame(mixed_pdf, schema=event_spark_schema())
    return AIQLEngine(spark, events=df)


def q(body):
    return AT + "window = 10 sec, step = 5 sec\n" + body


class TestWindows:
    def test_avg_per_overlapping_window(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procA"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p')).toPandas()
        # Windows containing procA events: w0 [0,10): {10,20} -> 15;
        # w1 [5,15): {20,30} -> 25; w2 [10,20): {30} -> 30. No other window.
        assert sorted(out["amt"]) == [15.0, 25.0, 30.0]
        assert set(out["p"]) == {"procA"}

    def test_sum_count_min_max(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procA"] write ip i as e\n'
            'return p, sum(e.amount) as s, count(e.amount) as c, '
            'min(e.amount) as lo, max(e.amount) as hi\ngroup by p')).toPandas()
        row = out[(out["c"] == 2) & (out["s"] == 30)].iloc[0]  # w0
        assert (row["lo"], row["hi"]) == (10, 20)
        assert sorted(out["s"]) == [30, 30, 50]  # w0, w2, w1

    def test_event_in_single_window_when_step_equals_window(self, win_engine):
        out = win_engine.execute(
            AT + "window = 5 sec, step = 5 sec\n"
            'proc p["procB"] write ip i as e\n'
            'return p, count(e.amount) as c\ngroup by p').toPandas()
        assert out["c"].tolist() == [1]  # tumbling: exactly one window

    def test_gap_when_step_exceeds_window(self, spark):
        # window 2s, step 10s: event at t=5s falls between windows.
        pdf = make_events([
            net_ev(1, DAY0 + 5 * SEC, "write", "X", "procX", "1.1.1.1", 80, 9)])
        eng = AIQLEngine(spark, events=spark.createDataFrame(
            pdf, schema=event_spark_schema()))
        out = eng.execute(
            AT + "window = 2 sec, step = 10 sec\n"
            'proc p write ip i as e\nreturn p, count(e.amount) as c\n'
            'group by p').toPandas()
        assert len(out) == 0

    def test_group_by_separates_processes(self, win_engine):
        out = win_engine.execute(q(
            'proc p write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p')).toPandas()
        assert set(out["p"]) == {"procA", "procB", "procC"}

    def test_distinct_return(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procC"] write ip i as e\n'
            'return distinct p, avg(e.amount) as amt\ngroup by p')).toPandas()
        # procC is constant-rate: every window avg is 5 -> distinct = 1 row
        assert len(out) == 1 and out.iloc[0]["amt"] == 5.0


class TestHistory:
    def test_moving_average_spike(self, win_engine):
        # procA: w2 has amt=30, amt[1]=25, amt[2]=15 -> 30 > 2*(30+25+15)/3
        # is 30 > 46.7 false; use a weaker spike condition on w2:
        out = win_engine.execute(q(
            'proc p["procA"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p\n'
            'having amt > (amt[1] + amt[2]) / 2')).toPandas()
        # w2: 30 > (25+15)/2 = 20 -> true. w1: 25 > (15 + null) -> null.
        assert out["amt"].tolist() == [30.0]

    def test_missing_history_drops_row(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procB"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p\n'
            'having amt > amt[1]')).toPandas()
        # procB only ever appears in w0 and the window starting -5s ==
        # clipped; no window has a predecessor with data -> empty.
        assert len(out) == 0

    def test_steady_rate_never_flags(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procC"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p\n'
            'having amt > 2 * (amt + amt[1] + amt[2]) / 3')).toPandas()
        assert len(out) == 0

    def test_history_depth_three(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procC"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p\n'
            'having amt = amt[3]')).toPandas()
        assert len(out) > 0  # constant process: every window equals w-3


class TestOracleAgreement:
    @pytest.mark.parametrize("body", [
        'proc p write ip i as e\nreturn p, avg(e.amount) as amt\ngroup by p',
        'proc p write ip i as e\nreturn p, sum(e.amount) as s, '
        'count(e.amount) as c\ngroup by p',
        'proc p write ip i as e\nreturn p, avg(e.amount) as amt\ngroup by p\n'
        'having amt > (amt[1] + amt[2]) / 2',
        'proc p["procC"] write ip i as e\nreturn p, avg(e.amount) as amt\n'
        'group by p\nhaving amt = amt[3]',
    ])
    def test_engine_matches_duckdb(self, win_engine, win_pdf, body):
        text = q(body)
        got = win_engine.execute(text).toPandas()
        want = run_duckdb(oracle_sql(text), events=win_pdf)
        assert_same_rows(got, want)

    @pytest.mark.parametrize("body", [
        # NULL ports form no group with history: every NULL-port window
        # fails `amt >= amt[1]`, although their amounts rise.
        'proc p write ip i as e\nreturn i.dstport, avg(e.amount) as amt\n'
        'group by i.dstport\nhaving amt >= amt[1]',
        # No group by: the whole pattern is one group with history.
        'proc p write ip i as e\nreturn sum(e.amount) as s\n'
        'having s > s[1]',
        # Two aggregates with non-contiguous history depths.
        'proc p write ip i as e\nreturn p, sum(e.amount) as s, '
        'max(e.amount) as m\ngroup by p\nhaving s > s[1] and m >= m[3]',
    ])
    def test_history_edge_cases(self, mixed_engine, mixed_pdf, body):
        text = q(body)
        got = mixed_engine.execute(text).toPandas()
        want = run_duckdb(oracle_sql(text), events=mixed_pdf)
        assert len(want) > 0
        assert_same_rows(got, want)

    def test_workload_anomaly_on_trace(self, engine, events_pdf):
        from repro.workload.queries import query_by_name
        text = query_by_name("q01_anomaly_exfil").aiql
        got = engine.execute(text).toPandas()
        want = run_duckdb(oracle_sql(text), events=events_pdf)
        assert_same_rows(got, want)
        assert {"powershell.exe", "sbblv.exe"} <= set(got["p"])
        assert "telemetry.exe" not in set(got["p"])


_CMP = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def anomaly_queries(draw):
    """Well-formed anomaly queries over the mixed micro trace: 1-2
    aggregates, an optional group key, history depths 1-3 in ``having``."""
    window, step = draw(st.sampled_from(
        [("10 sec", "5 sec"), ("10 sec", "10 sec"), ("15 sec", "5 sec")]))
    group = draw(st.sampled_from(["p", "i.dstport", None]))
    fns = draw(st.lists(st.sampled_from(["sum", "avg", "count", "max", "min"]),
                        min_size=1, max_size=2))
    aggs = [f"{fn}(e.amount) as a{j}" for j, fn in enumerate(fns)]
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        j = draw(st.integers(0, len(fns) - 1))
        k = draw(st.integers(1, 3))
        rhs = draw(st.sampled_from([f"a{j}[{k}]", f"2 * a{j}[{k}]",
                                    f"(a{j} + a{j}[{k}]) / 2"]))
        terms.append(f"a{j} {draw(st.sampled_from(_CMP))} {rhs}")
    having = draw(st.sampled_from([" and ", " or "])).join(terms)
    ret = ", ".join(([group] if group else []) + aggs)
    return (AT + f"window = {window}, step = {step}\n"
            "proc p write ip i as e\n"
            f"return {ret}\n"
            + (f"group by {group}\n" if group else "")
            + f"having {having}")


class TestGeneratedAgainstOracle:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(text=anomaly_queries())
    def test_engine_matches_duckdb(self, mixed_engine, mixed_pdf, text):
        got = mixed_engine.execute(text).toPandas()
        want = run_duckdb(oracle_sql(text), events=mixed_pdf)
        assert_same_rows(got, want)
