"""Execute one AIQL query against a store and print the result.

Usage: python jobs/run_query.py --store /tmp/aiql_store --query q.aiql
       python jobs/run_query.py --store /tmp/aiql_store --name q05_exfil_chain
       ... [--baseline]
"""
from __future__ import annotations

import argparse

import os as _os, sys as _sys
_ROOT = _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
_sys.path[:0] = [_ROOT, _os.path.join(_ROOT, "src")]
from repro.session import get_spark


def run(spark, store_path: str, text: str, baseline: bool = False):
    """Run AIQL ``text``: the optimized engine over the partitioned layout,
    or (``baseline=True``) the synthesized big SQL over the flat layout."""
    from repro.core.baseline import run_baseline
    from repro.core.engine import AIQLEngine
    from repro.monitor.storage import EventStore

    store = EventStore(spark, store_path)
    if baseline:
        return run_baseline(spark, text, store.events_flat())
    return AIQLEngine(spark, store=store).execute(text)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--store", required=True)
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--query", help="path to an AIQL query file")
    src.add_argument("--name", help="workload query name (qNN_...)")
    ap.add_argument("--baseline", action="store_true",
                    help="run the big-SQL baseline instead of the engine")
    a = ap.parse_args()
    if a.query:
        text = open(a.query).read()
    else:
        from repro.workload.queries import query_by_name
        text = query_by_name(a.name).aiql
    spark = get_spark("aiql-run-query")
    run(spark, a.store, text, a.baseline).show(100, truncate=False)
    spark.stop()


if __name__ == "__main__":
    main()
