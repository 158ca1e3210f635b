"""The benchmark's workloads: their operations, the reference answer of
each operation, and how one operation runs.

An operation of a query workload goes from AIQL text to collected rows.
The reference rows come from DuckDB running ``baseline.oracle_sql`` over a
pandas copy of the same generated events, so they are independent of both
Spark paths under test.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import duckdb
import numpy as np
from pyspark.sql import functions as F

from repro.core import anomaly, baseline, compiler
from repro.core.engine import AIQLEngine
from repro.monitor.storage import EventStore
from repro.workload.queries import QUERIES
from spans import maybe


@dataclass(frozen=True)
class Op:
    name: str
    kind: str           # "multievent" | "anomaly" | "bigsql" | "ingest"
    text: str = ""
    contains: tuple = ()
    absent: tuple = ()


# q01, the only anomaly query of Table A, matches 180 rows at SF 0.1, so
# the window explosion, aggregation and history lookup barely register in
# `investigate`. This sweep drives them with unselective patterns instead,
# staying inside the grammar the engine implements.
SWEEP_SIZE = 6
_SWEEP_OPS = [("read", "file f"), ("write", "file f"),
              ("read", "ip i"), ("write", "ip i")]
_SWEEP_AGGS = ["sum", "avg", "count", "max"]
_SWEEP_WINDOWS = [("1 min", "10 sec"), ("5 min", "1 min"), ("10 min", "1 min")]


def anomaly_sweep_queries(seed: int, n: int = SWEEP_SIZE) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        op, obj = rng.choice(_SWEEP_OPS)
        agg = rng.choice(_SWEEP_AGGS)
        window, step = rng.choice(_SWEEP_WINDOWS)
        depth = rng.randint(0, 3)
        agent = rng.choice([None, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        lines = ['(at "04/10/2018")']
        if agent is not None:
            lines.append(f"agentid = {agent}")
        lines += [f"window = {window}, step = {step}",
                  f"proc p {op} {obj} as evt",
                  f"return p, {agg}(evt.amount) as amt",
                  "group by p"]
        if depth:
            hist = " + ".join(f"amt[{k}]" for k in range(1, depth + 1))
            lines.append(f"having amt > ({hist}) / {depth}")
        out.append("\n".join(lines) + "\n")
    return out


def build_ops(workload: str, seed: int) -> list[Op]:
    if workload == "investigate":
        return [Op(q.name, "anomaly" if q.kind == "anomaly" else "multievent",
                   q.aiql, q.contains, q.absent) for q in QUERIES]
    if workload == "bigsql":
        return [Op(q.name, "bigsql", q.aiql, q.contains, q.absent)
                for q in QUERIES]
    if workload == "anomaly_sweep":
        return [Op(f"a{i:02d}", "anomaly", t)
                for i, t in enumerate(anomaly_sweep_queries(seed), 1)]
    if workload == "ingest":
        return [Op("write", "ingest")]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ correctness
def _sort_key(row):
    return tuple((1, "") if v is None else
                 (0, round(v, 6)) if isinstance(v, float) else (0, v)
                 for v in row)


def canonical(columns, rows) -> tuple[tuple, list[tuple]]:
    """Columns in name order, rows in sorted order."""
    order = sorted(range(len(columns)), key=lambda i: columns[i])
    return (tuple(columns[i] for i in order),
            sorted((tuple(r[i] for i in order) for r in rows), key=_sort_key))


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (a is not None and b is not None
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9))
    return a == b


def references(ops: list[Op], pdf) -> dict:
    """Operation name -> reference answer, from DuckDB over ``pdf``."""
    if ops[0].kind == "ingest":
        return {op.name: len(pdf) for op in ops}
    con = duckdb.connect()
    try:
        con.register("events", pdf)
        out = {}
        for op in ops:
            cur = con.execute(baseline.oracle_sql(op.text))
            rows = cur.fetchall()
            out[op.name] = canonical([d[0] for d in cur.description], rows)
        return out
    finally:
        con.close()


def check(op: Op, got, want) -> str | None:
    """None when ``got`` matches the reference, else why not."""
    if op.kind == "ingest":
        back = (got.events_partitioned().count(), got.events_flat().count())
        return None if back == (want, want) else f"read back {back}, wrote {want}"
    cols, rows = canonical(*got)
    if cols != want[0]:
        return f"columns {cols} != {want[0]}"
    if len(rows) != len(want[1]) or not all(
            _same(x, y) for r, w in zip(rows, want[1]) for x, y in zip(r, w)):
        return f"{len(rows)} rows differ from the {len(want[1])} reference rows"
    dicts = [dict(zip(cols, r)) for r in rows]
    for part in op.contains:
        if not any(all(d.get(k) == v for k, v in part.items()) for d in dicts):
            return f"missing ground-truth row {part}"
    for part in op.absent:
        if any(all(d.get(k) == v for k, v in part.items()) for d in dicts):
            return f"unexpected row {part}"
    return None


# ---------------------------------------------------------------- running
class Runner:
    """Runs one operation; with a tracer, it records the layer spans."""

    def __init__(self, spark, store: EventStore, events):
        self.spark = spark
        self.store = store
        self.events = events          # the generated trace, for `ingest`
        self.engine = AIQLEngine(spark, store=store)
        self.ingest_store = EventStore(spark, store.base.parent / "ingest")

    def run(self, op: Op, tracer=None):
        """Execute ``op``; returns ``(columns, rows)`` for queries and the
        written store for ``ingest``. A traced pass runs the same calls;
        the spans inside them come from ``spans.instrument``."""
        if op.kind == "ingest":
            with maybe(tracer, "storage.write"):
                self.ingest_store.write(self.events)
            return self.ingest_store
        if op.kind == "bigsql":
            flat = self.store.events_flat()
            with maybe(tracer, "bigsql"):
                df = baseline.run_baseline(self.spark, op.text, flat)
                rows = df.collect()
            return df.columns, rows
        # "multievent" or "anomaly": the span names the kind.
        with maybe(tracer, op.kind):
            df = self.engine.execute(op.text)
            with maybe(tracer, "collect") as rec:
                rows = df.collect()
            rec["rows_out"] = len(rows)
        return df.columns, rows


# ------------------------------------------- per-operation work counts
def scope_counts(runner: Runner, op: Op, n_events: int) -> dict:
    """Files and rows the operation's source covers, and for anomaly
    queries the rows its pattern matches, the rows the window explosion
    makes (from ``window_bounds``) and the (window, group) aggregates.
    Computed once per operation, after the traced passes."""
    if op.kind == "ingest":
        return {}
    ana = runner.engine.analyze(op.text)
    q = ana.query
    if op.kind == "bigsql":
        # The big SQL re-reads the whole flat table once per pattern.
        scans = len(q.events)
        return {"files": scans * len(runner.store.events_flat().inputFiles()),
                "rows": scans * n_events}
    src = runner.store.events_partitioned(q.time_range, q.agentid)
    # inputFiles() lists the whole file index, not the pruned partitions.
    per_file = src.groupBy(F.input_file_name()).count().collect()
    out = {"files": len(per_file), "rows": sum(r[1] for r in per_file)}
    if op.kind == "anomaly":
        alias = q.events[0].alias
        gcols = anomaly.group_cols(ana)
        pdf = (src.filter(compiler.pattern_filter(ana.pattern_preds[alias]))
               .select("ts", *gcols).toPandas())
        t0, w, s, kmax = anomaly.window_bounds(ana)
        ts = pdf["ts"].to_numpy(np.int64) - t0
        lo = np.maximum(0, (ts - w) // s + 1)
        n = np.clip(np.minimum(kmax, ts // s) - lo + 1, 0, None)
        starts = np.repeat(np.cumsum(n) - n, n)
        groups = pdf[gcols].iloc[np.repeat(np.arange(len(pdf)), n)]
        groups = groups.assign(wid=np.repeat(lo, n) + np.arange(n.sum()) - starts)
        out.update(pattern_rows=len(pdf), window_rows=int(n.sum()),
                   groups_out=len(groups.drop_duplicates()))
    return out

