"""Table A — query execution time: AIQL engine vs big-SQL baseline
(reproduces the paper's Figure 4 + the "3.6 min vs 77 min, 21x" headline).

Runs the 20-query investigation workload both ways over the same dataset
and prints per-query wall time, log10 values, totals, and the speedup.

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
from repro.session import get_spark


@dataclass
class Row:
    name: str
    kind: str
    aiql_s: float
    sql_s: float

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
        a = _time(lambda: engine.execute(q.aiql).count(), runs)
        b = _time(lambda: run_baseline(spark, q.aiql, flat).count(), runs)
        rows.append(Row(q.name, q.kind, a, b))
    return rows


def render(rows: list[Row], n_events: int) -> str:
    """Format the table (paper-vs-measured narrative lives in
    EXPERIMENTS.md)."""
    out = [
        f"Table A — workload of {len(rows)} queries over {n_events:,} events",
        f"{'query':<28}{'kind':<12}{'AIQL(s)':>9}{'SQL(s)':>9}"
        f"{'log10 AIQL':>12}{'log10 SQL':>11}{'speedup':>9}",
    ]
    for r in rows:
        out.append(
            f"{r.name:<28}{r.kind:<12}{r.aiql_s:>9.3f}{r.sql_s:>9.3f}"
            f"{math.log10(r.aiql_s):>12.2f}{math.log10(r.sql_s):>11.2f}"
            f"{r.speedup:>8.1f}x"
        )
    ta = sum(r.aiql_s for r in rows)
    tb = sum(r.sql_s for r in rows)
    out.append(
        f"{'TOTAL':<28}{'':<12}{ta:>9.1f}{tb:>9.1f}"
        f"{math.log10(ta):>12.2f}{math.log10(tb):>11.2f}{tb / ta:>8.1f}x"
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
