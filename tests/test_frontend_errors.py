"""Malformed AIQL raises the front end's own error classes, never a bare
``KeyError``/``ValueError`` from a helper, and a query the front end
accepts is one all three backends can run."""
import random
import re

import duckdb
import pytest

from repro.core.analyzer import AIQLSemanticError, analyze
from repro.core.baseline import oracle_sql, run_baseline
from repro.core.compiler import join_multievent
from repro.core.lexer import AIQLSyntaxError, strip_comments
from repro.monitor.schema import EVENT_COLUMNS
from repro.workload.queries import QUERIES


@pytest.mark.parametrize("text, cls", [
    # a keyword where the object entity type belongs
    ('proc p read with f["x"] as e\nreturn p', AIQLSyntaxError),
    # an operation/object pair the data model does not contain
    ("proc p start file f as e\nreturn p", AIQLSemanticError),
    # an unparseable time literal
    ('(at "x")\nproc p read file f as e\nreturn p', AIQLSyntaxError),
    # one variable as both ends of an event
    ("proc p start proc p as e\nreturn p", AIQLSemanticError),
    # an aggregate without its attribute
    ('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
     "proc p write ip i as e\nreturn avg() as a", AIQLSemanticError),
    # an aggregate alias naming a column of the per-window aggregate: the
    # window id, or the uid and name columns a bare ``p`` groups by
    *[('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
       f"proc p write ip i as e\nreturn p, avg(e.amount) as {name}\n"
       "group by p", AIQLSemanticError) for name in ("s_name", "s_uid", "wid")],
    # names that differ only in case, which SQL folds into one: two
    # aggregate aliases, two output columns, two event aliases
    ('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
     "proc p write ip i as e\nreturn p, avg(e.amount) as amt, "
     "sum(e.amount) as AMT\ngroup by p", AIQLSemanticError),
    ("proc p read file f as e1\nproc q write file f as e2\n"
     "return p as x, q as X", AIQLSemanticError),
    ("proc p read file f as e\nproc q write file f as E\nreturn p, q",
     AIQLSemanticError),
    # a digit ``int`` rejects, a letter Spark's parser rejects in a name
    ("agentid = ² proc p read file f as e return p", AIQLSyntaxError),
    ("proc p read file f as eé\nreturn p", AIQLSyntaxError),
    # an arrow, which no rule of the grammar reads
    ("proc p read file f as e1 -> e2\nreturn p", AIQLSyntaxError),
    # a sum or average of a string column, which both SQL engines reject
    ('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
     "proc p write ip i as e\nreturn p, sum(i) as n\ngroup by p", AIQLSemanticError),
    ('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
     "proc p write ip i as evt\nreturn p, avg(evt.op) as n\ngroup by p",
     AIQLSemanticError),
    # a number against a string column, which both SQL engines fail to cast
    ("proc p[5] read file f as e return p", AIQLSemanticError),
    # a host id that is not an integer
    ("agentid = 1.5\nproc p read file f as e\nreturn p", AIQLSyntaxError),
], ids=["keyword-as-entity", "op-object-mismatch", "bad-time-literal",
        "subject-is-object", "aggregate-without-attribute",
        "aggregate-alias-s_name", "aggregate-alias-s_uid", "aggregate-alias-wid",
        "aggregate-aliases-by-case", "output-names-by-case",
        "event-aliases-by-case", "superscript-digit",
        "non-ascii-name", "arrow", "sum-of-string", "avg-of-string",
        "number-against-string", "fractional-agentid"])
def test_error_class(text, cls):
    with pytest.raises(ValueError) as info:
        analyze(text)
    assert type(info.value) is cls


# ----------------------------------------------------------------- fuzzing
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|\w+|\S')
FUZZ_MUTANTS = 6000


def _mutants(n: int, seed: int = 0):
    """``n`` workload queries, each with one or two token deletions,
    insertions (of a token of the same query) or swaps; the same every
    run."""
    rng = random.Random(seed)
    corpus = [_TOKEN.findall(strip_comments(q.aiql)) for q in QUERIES]
    for _ in range(n):
        toks = list(rng.choice(corpus))
        pool = list(toks)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(toks))
            kind = rng.choice(("delete", "insert", "swap"))
            if kind == "delete" and len(toks) > 1:
                del toks[i]
            elif kind == "insert":
                toks.insert(i, rng.choice(pool))
            else:
                j = rng.randrange(len(toks))
                toks[i], toks[j] = toks[j], toks[i]
        yield " ".join(toks)


def test_mutated_workload_raises_only_aiql_errors():
    accepted = 0
    for text in _mutants(FUZZ_MUTANTS):
        try:
            analyze(text)
            accepted += 1
        except (AIQLSyntaxError, AIQLSemanticError):
            pass
        except Exception as e:
            raise AssertionError(f"{type(e).__name__} escaped on {text!r}") from e
    # The mutants reach past the parser: some still analyze cleanly.
    assert 0 < accepted < FUZZ_MUTANTS


# ------------------------------------------------------ SQL words as names
def test_sql_keyword_names_rejected_or_run(spark, tiny_engine, tiny, tiny_pdf):
    """Every keyword of DuckDB's or Spark's SQL parser, and every event
    column name, used as an event alias and as an output column name, is
    either rejected by the front end or gets through Spark's analysis of
    the engine's text (with the alias as the driving FROM item and as a
    ``BROADCAST`` hint parameter) and of the baseline text, and DuckDB's
    binding of the oracle text. Nothing is executed."""
    words = {r.keyword.lower()
             for r in spark.sql("SELECT keyword FROM sql_keywords()").collect()}
    words |= {c for c, _ in EVENT_COLUMNS}
    failed = {}
    with duckdb.connect() as con:
        words |= {k for (k,) in con.execute(
            "SELECT keyword_name FROM duckdb_keywords()").fetchall()}
        con.register("events", tiny_pdf)
        for w in sorted(words):
            text = (f"proc p read file f as {w}\nproc q write file f as e2\n"
                    f"with {w} before e2\nreturn p as {w}, q")
            try:
                ana = analyze(text)
            except (AIQLSyntaxError, AIQLSemanticError):
                continue
            for backend, build in (
                    ("engine", lambda: tiny_engine.execute(text)),
                    ("driving", lambda: join_multievent(tiny, ana, [w, "e2"], {"e2"})),
                    ("hint", lambda: join_multievent(tiny, ana, ["e2", w], {w})),
                    ("spark", lambda: run_baseline(spark, text, tiny)),
                    ("duckdb", lambda: con.execute("EXPLAIN " + oracle_sql(text)))):
                try:
                    build()
                except Exception as e:
                    failed.setdefault(w, []).append(f"{backend}: {type(e).__name__}")
    assert not failed
