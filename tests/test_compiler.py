"""Pattern-compiler tests: pattern filters, temporal conditions, and the
scheduled big SQL with its projection. Filters and conditions are the
spark-dialect SQL text of ``expr``, so each test checks what Spark makes of
that text."""
import pytest
from pyspark.sql import functions as F

from repro.core.analyzer import OrGroup, Pred
from repro.core.analyzer import analyze as ana
from repro.core.ast import TemporalConstraint
from repro.core.compiler import join_multievent, pattern_filter, project_return
from repro.core.expr import temporal_sql
from repro.core.parser import parse

DAY0 = 1523318400000


def matches(df, p) -> int:
    """Rows of ``df`` that the pattern filter of predicate ``p`` keeps."""
    return df.filter(pattern_filter([p])).count()


class TestPredToColumn:
    """One lowered predicate through ``pattern_filter``."""

    @pytest.fixture(scope="class")
    def df(self, spark, tiny):
        return tiny

    def test_eq(self, df):
        assert matches(df, Pred("s_name", "=", "bash")) \
            == df.filter(F.col("s_name") == "bash").count()

    def test_like(self, df):
        n = matches(df, Pred("o_name", "like", "/tmp/%"))
        assert n == df.filter(F.col("o_name").like("/tmp/%")).count() > 0

    def test_not_like_excludes_nulls(self, df):
        """NOT LIKE keeps SQL three-valued logic: NULL o_name rows drop."""
        n = matches(df, Pred("o_name", "not like", "/tmp/%"))
        manual = df.filter(F.col("o_name").isNotNull()
                           & ~F.col("o_name").like("/tmp/%")).count()
        assert n == manual

    @pytest.mark.parametrize("op,cnt_op", [
        ("<", "__lt__"), ("<=", "__le__"), (">", "__gt__"), (">=", "__ge__"),
        ("!=", "__ne__"),
    ])
    def test_ordering_ops(self, df, op, cnt_op):
        got = matches(df, Pred("amount", op, 100))
        want = df.filter(getattr(F.col("amount"), cnt_op)(100)).count()
        assert got == want

    def test_or_group(self, df):
        og = OrGroup((Pred("s_name", "=", "bash"), Pred("s_name", "=", "curl")))
        assert matches(df, og) == \
            df.filter(F.col("s_name").isin("bash", "curl")).count()

    def test_empty_filter_is_true(self, df):
        assert df.filter(pattern_filter([])).count() == df.count()


def ts_pairs(spark, *pairs):
    """One row per ``(a.ts, b.ts)`` pair, under the event aliases a and b."""
    df = spark.createDataFrame([(i, a, b) for i, (a, b) in enumerate(pairs)],
                               "i int, a long, b long")
    return (df.selectExpr("i", "a AS ts").alias("a")
            .join(df.selectExpr("i", "b AS ts").alias("b"), F.expr("a.i = b.i")))


class TestTemporalCondition:
    def test_before(self, spark):
        tc = TemporalConstraint("a", "b")
        assert ts_pairs(spark, (1, 2), (3, 2)).filter(
            F.expr(temporal_sql(tc))).count() == 1

    def test_after_swaps(self, spark):
        [tc] = parse('proc p read file f as a\nproc q read file f as b\n'
                     'with a after b\nreturn p').temporal
        got = ts_pairs(spark, (1, 2), (3, 2)).filter(
            F.expr(temporal_sql(tc))).select("a.ts").collect()
        assert [r["ts"] for r in got] == [3]

    def test_within(self, spark):
        tc = TemporalConstraint("a", "b", within_ms=1000)
        got = ts_pairs(spark, (0, 500), (0, 5000)).filter(
            F.expr(temporal_sql(tc))).select("b.ts").collect()
        assert [r["ts"] for r in got] == [500]


class TestJoinAndProject:
    """``join_multievent`` runs the big SQL in the engine's schedule; the
    order and the broadcast hints change the plan, never the rows."""
    Q = ('proc p start proc q as e1\n'
         'proc q read file f as e2\n'
         'with e1 before e2\n'
         'return p, q, f')

    @staticmethod
    def run(tiny, text, order, broadcast=frozenset()):
        a = ana(text)
        out = project_return(join_multievent(tiny.sparkSession, tiny, a, order,
                                            broadcast), a)
        return out.collect()

    def test_two_pattern_join(self, tiny):
        out = self.run(tiny, self.Q, ["e1", "e2"])
        # bash starts python (t+1000) -> python reads /tmp/x (t+2000, t+next-day)
        # and nginx starts sh (t+10000) -> sh reads /etc/passwd (t+11000)
        assert {(r["p"], r["q"], r["f"]) for r in out} == {
            ("bash", "python", "/tmp/x"), ("nginx", "sh", "/etc/passwd")}

    def test_join_order_invariant(self, tiny):
        out1 = set(map(tuple, self.run(tiny, self.Q, ["e1", "e2"])))
        out2 = set(map(tuple, self.run(tiny, self.Q, ["e2", "e1"])))
        assert out1 == out2

    def test_broadcast_matches_plain(self, tiny):
        plain = set(map(tuple, self.run(tiny, self.Q, ["e1", "e2"])))
        bcast = set(map(tuple, self.run(tiny, self.Q, ["e1", "e2"], {"e2"})))
        assert plain == bcast

    def test_distinct(self, tiny):
        # curl writes /tmp/y and sh writes /tmp/y -> two rows; distinct on f
        out = self.run(tiny, 'proc p write file f as e1\nreturn distinct f', ["e1"])
        names = [r["f"] for r in out]
        assert len(names) == len(set(names))
