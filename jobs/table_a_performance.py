"""Table A — query execution time: AIQL engine vs big-SQL baseline
(reproduces the paper's Figure 4 + the "3.6 min vs 77 min, 21x" headline).

Runs the 20-query investigation workload both ways over the same dataset
and prints per-query wall time, log10 values, totals, and the speedup; and
for each query whether the engine ran it interpreted (its scope holds at
most ``engine.INTERPRET_ROWS`` events) and how many Java classes each side
compiled with Janino while it ran.

Usage: python jobs/table_a_performance.py [--sf 0.1] [--store DIR] [--runs 1]
"""
from __future__ import annotations

import argparse
import math
import shutil
import tempfile
import time
from dataclasses import dataclass

import os as _os, sys as _sys
_ROOT = _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
_sys.path[:0] = [_ROOT, _os.path.join(_ROOT, "src")]
from repro.session import get_spark, janino_compiles


@dataclass
class Row:
    name: str
    kind: str
    aiql_s: float
    sql_s: float
    interpreted: bool = False   # the engine ran it without code generation
    aiql_compiles: int = 0      # Janino compiles while the engine side ran
    sql_compiles: int = 0       # ... while the baseline side ran

    @property
    def speedup(self) -> float:
        return self.sql_s / self.aiql_s if self.aiql_s > 0 else float("inf")


def _time(fn, runs: int) -> float:
    best = math.inf
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(spark, store, runs: int = 1, queries=None) -> list[Row]:
    """Time every workload query on both execution strategies.

    Materialization is ``.count()`` on the result — both sides pay it, and
    it forces the full plan (joins, windows, having) to execute.
    """
    from repro.core.baseline import run_baseline
    from repro.core.engine import AIQLEngine
    from repro.workload.queries import QUERIES

    queries = queries or QUERIES
    engine = AIQLEngine(spark, store=store)
    flat = store.events_flat()
    rows = []
    for q in queries:
        c0 = janino_compiles(spark)
        a = _time(lambda: engine.execute(q.aiql).count(), runs)
        c1 = janino_compiles(spark)
        b = _time(lambda: run_baseline(spark, q.aiql, flat).count(), runs)
        c2 = janino_compiles(spark)
        # ``execute`` is lazy: this plans the query again and runs nothing.
        interpreted = engine.execute(q.aiql).sparkSession is engine.interpreting
        rows.append(Row(q.name, q.kind, a, b, interpreted, c1 - c0, c2 - c1))
    return rows


def render(rows: list[Row], n_events: int) -> str:
    """Format the table (paper-vs-measured narrative lives in
    EXPERIMENTS.md). ``interp`` marks a query the engine ran interpreted;
    ``jit`` columns count Janino compiles per side."""
    out = [
        f"Table A — workload of {len(rows)} queries over {n_events:,} events",
        f"{'query':<28}{'kind':<12}{'AIQL(s)':>9}{'SQL(s)':>9}"
        f"{'log10 AIQL':>12}{'log10 SQL':>11}{'speedup':>9}"
        f"{'interp':>8}{'jit AIQL':>10}{'jit SQL':>9}",
    ]
    for r in rows:
        out.append(
            f"{r.name:<28}{r.kind:<12}{r.aiql_s:>9.3f}{r.sql_s:>9.3f}"
            f"{math.log10(r.aiql_s):>12.2f}{math.log10(r.sql_s):>11.2f}"
            f"{r.speedup:>8.1f}x{'yes' if r.interpreted else 'no':>8}"
            f"{r.aiql_compiles:>10}{r.sql_compiles:>9}"
        )
    ta = sum(r.aiql_s for r in rows)
    tb = sum(r.sql_s for r in rows)
    out.append(
        f"{'TOTAL':<28}{'':<12}{ta:>9.1f}{tb:>9.1f}"
        f"{math.log10(ta):>12.2f}{math.log10(tb):>11.2f}{tb / ta:>8.1f}x"
        f"{sum(r.interpreted for r in rows):>8}"
        f"{sum(r.aiql_compiles for r in rows):>10}"
        f"{sum(r.sql_compiles for r in rows):>9}"
    )
    out.append("paper: AIQL 3.6 min vs PostgreSQL 77 min => 21x speedup")
    return "\n".join(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.5)
    ap.add_argument("--store", default=None,
                    help="existing store dir (skips generation)")
    ap.add_argument("--runs", type=int, default=1)
    a = ap.parse_args()
    spark = get_spark("aiql-table-a")
    spark.sparkContext.setLogLevel("ERROR")
    from repro.monitor.storage import EventStore

    tmp = None
    if a.store:
        store = EventStore(spark, a.store)
    else:
        from jobs.generate_data import run as gen
        tmp = tempfile.mkdtemp(prefix="aiql_table_a_")
        store = gen(spark, a.sf, tmp)
    try:
        rows = measure(spark, store, a.runs)
        print(render(rows, store.events_flat().count()))
    finally:
        if tmp:
            shutil.rmtree(tmp, ignore_errors=True)
        spark.stop()


if __name__ == "__main__":
    main()
