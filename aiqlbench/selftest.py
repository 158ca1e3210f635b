#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale factor (SF 0.001).

    python3 aiqlbench/selftest.py

For every workload, one untraced and one traced run, each with a single
measured pass, must emit every named metric, count no failure, and (when
traced) give every span of an operation that operation's id. A run whose
reference was deliberately corrupted must count a failure, which shows the
correctness gate can fail. Exits non-zero on the first broken expectation.
This is a plain script, outside any pytest collection: it takes minutes.
"""
from __future__ import annotations

import math
import os
import sys
import time

import run

SF = 0.001


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    t0 = time.perf_counter()
    spark = run.start_spark(os.cpu_count() or 1, run.driver_memory())
    session_s = time.perf_counter() - t0
    from harness import END_TO_END, PER_LAYER, Measurement

    def measure(workload, trace, corrupt=False):
        m = Measurement(spark, workload, seed=7, seconds=0, trace=trace, sf=SF,
                        work=run.WORK / "selftest", corrupt_reference=corrupt)
        return m, m.run(session_s)

    try:
        for workload in run.WORKLOADS:
            _, res = measure(workload, trace=False)
            expect(res["failed"] == 0, f"{workload}: {res['info']['failures']}")
            expect(set(res["metrics"]) == set(END_TO_END), f"{workload}: e2e keys")
            expect(all(math.isfinite(v["value"]) and v["value"] > 0
                       for v in res["metrics"].values()),
                   f"{workload}: e2e values {res['metrics']}")

            m, res = measure(workload, trace=True)
            expect(res["failed"] == 0, f"{workload} traced: {res['info']['failures']}")
            expect(set(res["metrics"]) == set(PER_LAYER), f"{workload}: layer keys")
            spans = m.tracer.spans
            for s in spans:
                if s["parent"] is not None:
                    expect(spans[s["parent"]]["op"] == s["op"],
                           f"{workload}: span {s['name']} outside its operation")
            names = {s["name"] for s in spans if s["op"] in m.op_pass}
            want = {"investigate": {"frontend.analyze", "storage.open", "probe",
                                    "multievent", "compiler.join_multievent",
                                    "compiler.project_return", "collect",
                                    "anomaly", "anomaly.run"},
                    "anomaly_sweep": {"frontend.analyze", "storage.open",
                                      "anomaly", "anomaly.run"},
                    "bigsql": {"storage.open", "bigsql", "sqlgen"},
                    "ingest": {"storage.write"}}[workload]
            expect(want <= names, f"{workload}: spans {sorted(names)}")
            print(f"selftest {workload}: ok", flush=True)

        for workload in ("anomaly_sweep", "ingest"):
            _, res = measure(workload, trace=False, corrupt=True)
            expect(res["failed"] >= 1,
                   f"{workload}: a corrupted reference was not counted as a failure")
            print(f"selftest {workload} with a corrupted reference: "
                  f"{res['failed']}/{res['attempted']} failed, as it must", flush=True)
    finally:
        run.stop_spark(spark)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
