"""Expression lowering tests — SQL text, and what Spark makes of it."""
import pytest
from pyspark.sql import functions as F

from repro.core.ast import AttrRef, BinOp, HistRef, Literal, UnaryOp
from repro.core.expr import sql_quote, to_sql

# History as the self-join reads it, and as a column of ``a`` (for Spark).
JOIN_HIST = "h{k}.{n}"
COL_HIST = "a.h{k}_{n}"


def spark_expr(e):
    """The engine's reading of expression e: its spark-dialect text."""
    return F.expr(to_sql(e, COL_HIST, dialect="spark"))


def frame(spark, rows, schema=None):
    """The per-window aggregate ``a`` the text reads its names from."""
    return spark.createDataFrame(rows, schema).alias("a")


def ev(spark, e, **row):
    """Evaluate expression e against a single-row DataFrame."""
    df = frame(spark, [row])
    return df.select(spark_expr(e).alias("v")).collect()[0]["v"]


class TestSqlQuote:
    def test_string(self):
        for d in ("spark", "duckdb", "postgres"):
            assert sql_quote("abc", d) == "'abc'"

    def test_escapes_single_quote(self):
        assert sql_quote("a'b", "duckdb") == "'a''b'"
        assert sql_quote("a'b", "postgres") == "'a''b'"

    def test_spark_escapes_quote_and_backslash(self):
        assert sql_quote("a'b", "spark") == r"'a\'b'"
        assert sql_quote("a\\'b", "spark") == r"'a\\\'b'"

    def test_spark_reads_its_own_text(self, spark):
        vals = ["a'b", "a''b", "a\\'b", "'", "\\", "c:\\t'"]
        row = spark.range(1).select(
            [F.expr(sql_quote(v, "spark")).alias(f"v{i}") for i, v in enumerate(vals)]
        ).collect()[0]
        assert list(row) == vals

    def test_int(self):
        assert sql_quote(42, "spark") == "42"

    def test_float(self):
        assert sql_quote(1.5, "spark") == "1.5"


class TestToSql:
    def test_arithmetic(self):
        e = BinOp("+", AttrRef(None, "amt"), Literal(3))
        assert to_sql(e, JOIN_HIST, "spark") == "(a.amt + 3)"

    def test_hist_ref(self):
        e = BinOp(">", AttrRef(None, "amt"), HistRef("amt", 2))
        assert to_sql(e, JOIN_HIST, "spark") == "(a.amt > h2.amt)"

    def test_ne_spelled_standard(self):
        e = BinOp("!=", AttrRef(None, "x"), Literal(1))
        assert to_sql(e, JOIN_HIST, "spark") == "(a.x <> 1)"

    def test_and_or_upper(self):
        e = BinOp("or", BinOp("and", Literal(1), Literal(2)), Literal(3))
        assert to_sql(e, JOIN_HIST, "spark") == "((1 AND 2) OR 3)"

    def test_not(self):
        e = UnaryOp("not", AttrRef(None, "x"))
        assert to_sql(e, JOIN_HIST, "spark") == "(NOT a.x)"

    def test_neg(self):
        e = UnaryOp("-", Literal(5))
        assert to_sql(e, JOIN_HIST, "spark") == "(-5)"

    def test_paper_having(self):
        # amt > 2 * (amt + amt[1] + amt[2]) / 3
        e = BinOp(">", AttrRef(None, "amt"),
                  BinOp("/", BinOp("*", Literal(2),
                                   BinOp("+", BinOp("+", AttrRef(None, "amt"),
                                                    HistRef("amt", 1)),
                                         HistRef("amt", 2))),
                        Literal(3)))
        assert to_sql(e, JOIN_HIST, "spark") == \
            "(a.amt > ((2 * ((a.amt + h1.amt) + h2.amt)) / 3))"

    def test_literal_quoted_for_dialect(self):
        e = BinOp("=", AttrRef(None, "x"), Literal(r"c:\t"))
        assert to_sql(e, JOIN_HIST, dialect="spark") == r"(a.x = 'c:\\t')"
        assert to_sql(e, JOIN_HIST, dialect="duckdb") == r"(a.x = 'c:\t')"

    def test_unresolved_attr_raises(self):
        with pytest.raises(ValueError, match="unresolved"):
            to_sql(AttrRef("p", "x"), JOIN_HIST, "spark")


class TestToColumn:
    """The spark-dialect text evaluated by Spark, as the engine's ``having``
    filter is."""

    def test_literal(self, spark):
        assert ev(spark, Literal(7), x=0) == 7

    def test_name_resolution(self, spark):
        assert ev(spark, AttrRef(None, "x"), x=9) == 9

    @pytest.mark.parametrize("op,l,r,want", [
        ("+", 2, 3, 5), ("-", 7, 3, 4), ("*", 4, 5, 20), ("/", 9, 2, 4.5),
    ])
    def test_arithmetic(self, spark, op, l, r, want):
        assert ev(spark, BinOp(op, Literal(l), Literal(r)), x=0) == want

    @pytest.mark.parametrize("op,l,r,want", [
        ("=", 3, 3, True), ("!=", 3, 3, False), ("<", 2, 3, True),
        ("<=", 3, 3, True), (">", 2, 3, False), (">=", 3, 3, True),
    ])
    def test_comparisons(self, spark, op, l, r, want):
        assert ev(spark, BinOp(op, Literal(l), Literal(r)), x=0) is want

    def test_and_or_not(self, spark):
        e = BinOp("and", Literal(True), UnaryOp("not", Literal(False)))
        assert ev(spark, e, x=0) is True

    def test_hist_resolution(self, spark):
        e = BinOp(">", AttrRef(None, "x"), HistRef("x", 1))
        df = frame(spark, [{"x": 5, "h1_x": 3}])
        got = df.select(spark_expr(e).alias("v")).collect()[0]["v"]
        assert got is True

    def test_null_comparison_is_null(self, spark):
        """NULL history → NULL comparison → filter drops the row (the
        documented amt[k] semantics)."""
        df = frame(spark, [(5, None)], "x int, h1_x int")
        e = BinOp(">", AttrRef(None, "x"), HistRef("x", 1))
        assert df.filter(spark_expr(e)).count() == 0
