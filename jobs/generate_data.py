"""Generate the synthetic monitoring trace and write both store layouts.

Usage: python jobs/generate_data.py --sf 0.1 --out /tmp/aiql_store
"""
from __future__ import annotations

import argparse

import os as _os, sys as _sys
_ROOT = _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
_sys.path[:0] = [_ROOT, _os.path.join(_ROOT, "src")]
from repro.session import get_spark


def run(spark, sf: float, out: str, n_hosts: int = 10, seed: int = 0,
        days: int = 1):
    """Generate at ``sf`` and persist partitioned + flat Parquet layouts.
    Returns the EventStore."""
    from repro.monitor.generator import gen_events
    from repro.monitor.storage import EventStore

    df = gen_events(spark, sf=sf, n_hosts=n_hosts, seed=seed, days=days)
    store = EventStore(spark, out)
    store.write(df)
    return store


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--hosts", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--days", type=int, default=1)
    a = ap.parse_args()
    spark = get_spark("aiql-generate-data")
    store = run(spark, a.sf, a.out, a.hosts, a.seed, a.days)
    n = store.events_flat().count()
    print(f"wrote {n} events to {a.out} (partitioned + flat)")
    spark.stop()


if __name__ == "__main__":
    main()
