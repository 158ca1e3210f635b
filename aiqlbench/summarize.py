#!/usr/bin/env python3
"""Summarize benchmark runs: per workload and metric, the median, the
quartiles and their distance as a share of the median; ``speedup_x``, the
``bigsql`` median ``pass_s`` over the ``investigate`` one; and the tracing
overhead, the traced run's ``trace.pass_s`` minus the untraced run's
``pass_s`` of the same workload and seed (median over seeds).

    python3 aiqlbench/summarize.py [RESULT.json ...]

With no argument it reads every result record under
``.aiqlbench_work/results/``. Each record is one run's JSON as ``run.py``
writes it there.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import WORK


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(
        (WORK / "results").glob("*-trace[01].json"))
    by = defaultdict(lambda: defaultdict(list))
    pass_s = defaultdict(dict)      # (workload, trace) -> seed -> pass time
    failed = defaultdict(int)
    for p in paths:
        rec = json.loads(p.read_text())
        info = rec["info"]
        key = info["workload"], int(info["traced"])
        failed[key] += rec["failed"]
        for k, m in rec["metrics"].items():
            by[key][k].append(m["value"])
        metric = "trace.pass_s" if info["traced"] else "pass_s"
        pass_s[key][info["seed"]] = rec["metrics"][metric]["value"]
    medians = {}
    for (workload, trace), metrics in sorted(by.items()):
        print(f"{workload} --trace {trace}  (failed operations: "
              f"{failed[workload, trace]})")
        for k, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            medians[workload, k] = med
            spread = f"{(q3 - q1) / med:.3f}" if med else "-"
            print(f"  {k:<28} n={len(vals):<3} median={med:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread}")
    if ("bigsql", "pass_s") in medians and ("investigate", "pass_s") in medians:
        print(f"speedup_x = {medians['bigsql', 'pass_s'] / medians['investigate', 'pass_s']:.3f}"
              " (bigsql pass_s / investigate pass_s)")
    for workload in sorted({w for w, _ in pass_s}):
        plain, traced = pass_s[workload, 0], pass_s[workload, 1]
        diffs = [traced[s] - plain[s] for s in sorted(plain.keys() & traced.keys())]
        if diffs:
            print(f"{workload}: tracing overhead {statistics.median(diffs) * 1e3:.0f} ms "
                  f"per pass (median over {len(diffs)} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
