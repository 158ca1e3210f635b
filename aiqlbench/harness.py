"""One benchmark run of one workload: set-up, warm-up, measured passes,
and the metrics computed from them.

Load is one closed-loop analyst: the next operation is issued only once
the previous one's rows have been collected. A pass runs every operation
of the workload once, in order; a run measures whole passes, about
``seconds`` worth of them. With tracing on, the same passes run traced.
The JVM still speeds up from pass to pass, so the tracing overhead is the
traced run's ``trace.pass_s`` minus the untraced run's ``pass_s`` for the
same workload and seed, which puts both at the same point of that curve
(``summarize.py`` prints it).
"""
from __future__ import annotations

import os
import queue
import statistics
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from repro.monitor import generator
from repro.monitor.storage import EventStore
from spans import SparkCounter, Tracer, instrument, maybe
from workloads import Runner, build_ops, check, references, scope_counts

SETUP_ROUNDS = 2
# One untimed pass before the measured ones. The JVM keeps compiling for
# about four passes (an investigate run went 25.8, 18.4, 16.1, 13.5, then
# 14-15.7 s), which the runs the benchmark is allowed cannot wait for, so
# every run measures at the same point: the passes right after one pass.
# Being untimed, the warm-up need not be one closed-loop analyst: it runs
# the operations on one thread per core, each thread with its own engine,
# which compiles the same code in about 60% of the time of a sequential
# pass (investigate: 16.4 s against 26.4 s) and leaves the run's time for
# measured passes.
WARMUP_PASSES = 1
# The time a run allots to one measured pass; a run measures
# round(seconds / PASS_SECONDS) whole passes, at least one. At --seconds 20
# that is two passes of investigate, whose 20 latencies per pass split
# into a fast and a slow cluster with the median between them, and one
# of bigsql, whose second pass made no metric steadier over the same ten
# seeds (pass_s spread 0.04-0.13 of the median either way) and would push
# the full check of 4 + 22 runs per workload past its time limit.
PASS_SECONDS = {"investigate": 10, "anomaly_sweep": 30, "bigsql": 20, "ingest": 1.3}
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "events_per_s": "1/s",
}

PER_LAYER = {
    "frontend.analyze_ms": "ms",
    "storage.open_ms": "ms",
    "storage.files_read": "count",
    "storage.rows_scanned": "count",
    "probe.ms": "ms",
    "probe.rows": "count",
    "probe.rows_max": "count",
    "probe.cached_bytes": "bytes",
    "scheduler.broadcast_count": "count",
    "join.ms": "ms",
    "join.rows_out": "count",
    "join.useful_ratio": "ratio",
    "anomaly.ms": "ms",
    "anomaly.pattern_rows": "count",
    "anomaly.window_rows": "count",
    "anomaly.groups_out": "count",
    "sqlgen.ms": "ms",
    "bigsql.exec_ms": "ms",
    "generator.ms": "ms",
    "storage.write_ms": "ms",
    "storage.bytes_partitioned": "bytes",
    "storage.bytes_flat": "bytes",
    "storage.files_written": "count",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "trace.pass_s": "s",
}
# Per write or per run, not summed over a pass.
_NOT_PER_PASS = {"generator.ms", "storage.write_ms", "storage.bytes_partitioned",
                 "storage.bytes_flat", "storage.files_written", "trace.pass_s"}


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest of p99/p95/p90/p75/p50 with at least TAIL_MIN_BEYOND
    samples beyond it (p50 when none has)."""
    n = len(latencies)
    if n < 2:
        return 50, latencies[0]
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p, q[p - 1]
    return 50, statistics.median(latencies)


def _layout(store: EventStore) -> dict:
    out = {"files": 0}
    for key, path in (("partitioned", store.partitioned_path),
                      ("flat", store.flat_path)):
        parts = [f for f in Path(path).rglob("part-*") if f.is_file()]
        out["files"] += len(parts)
        out[key] = sum(f.stat().st_size for f in parts)
    return out


class Measurement:
    """The state of one run; ``run()`` returns its result record."""

    def __init__(self, spark, workload, seed, seconds, trace, sf, work: Path,
                 corrupt_reference=False):
        self.spark, self.workload, self.seed = spark, workload, seed
        self.seconds, self.trace, self.sf = seconds, trace, sf
        self.work = work
        self.corrupt_reference = corrupt_reference
        self.ops = build_ops(workload, seed)
        self.tracer = Tracer() if trace else None
        self.counter = SparkCounter(spark) if trace else None
        self.attempted = 0
        self.failures: list[str] = []
        self.op_pass: dict[str, tuple[int, str]] = {}   # op id -> (pass, op)

    # ------------------------------------------------------------ set-up
    def setup(self) -> None:
        store = EventStore(self.spark, self.work / "store")
        self.rounds, self.gen_s, self.write_s = [], [], []
        for r in range(SETUP_ROUNDS):
            if self.tracer:
                self.tracer.op = f"setup{r}"
            t0 = time.perf_counter()
            with maybe(self.tracer, "generator.gen_events"):
                events = generator.gen_events(self.spark, sf=self.sf, seed=self.seed)
            t1 = time.perf_counter()
            with maybe(self.tracer, "storage.write"):
                store.write(events)
            t2 = time.perf_counter()
            with maybe(self.tracer, "reference"):
                pdf = generator.gen_events_pdf(sf=self.sf, seed=self.seed)
                self.refs = references(self.ops, pdf)
            self.rounds.append(time.perf_counter() - t0)
            self.gen_s.append(t1 - t0)
            self.write_s.append(t2 - t1)
        self.n_events = len(pdf)
        if self.corrupt_reference:
            name = self.ops[0].name
            ref = self.refs[name]
            self.refs[name] = (ref + 1 if isinstance(ref, int)
                               else (ref[0], ref[1] + [(None,) * len(ref[0])]))
        self.runner = Runner(self.spark, store, events)
        self.layout = _layout(store)

    # ---------------------------------------------------------- running
    def run_op(self, op, op_id, traced) -> float:
        """Run and check one operation; returns its latency."""
        tracer = self.tracer if traced else None
        if tracer:
            tracer.op = op_id
        counting = self.counter.op(op_id) if traced else nullcontext()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with counting, maybe(tracer, "op", query=op.name):
                got = self.runner.run(op, tracer)
            dt = time.perf_counter() - t0
            err = check(op, got, self.refs[op.name])
        except Exception as e:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            err = f"{type(e).__name__}: {e}"
        if err is not None:
            self.failures.append(f"{op_id}: {err}")
        return dt

    def warm_up(self) -> None:
        """Run and check every operation once, on concurrent threads."""
        k = min(os.cpu_count() or 1, len(self.ops))
        # An engine keeps per-query state, so each thread borrows its own.
        idle = queue.SimpleQueue()
        idle.put(self.runner)
        for _ in range(k - 1):
            idle.put(Runner(self.spark, self.runner.store, self.runner.events))

        def work(op):
            runner = idle.get()
            try:
                return check(op, runner.run(op), self.refs[op.name])
            except Exception as e:  # counted, not fatal
                return f"{type(e).__name__}: {e}"
            finally:
                idle.put(runner)

        with ThreadPoolExecutor(max_workers=k) as pool:
            errs = list(pool.map(work, self.ops))
        self.attempted += len(errs)
        self.failures += [f"warm-up:{op.name}: {err}"
                          for op, err in zip(self.ops, errs) if err is not None]
        # The other engines' pinned pattern results must not sit in the
        # measured passes' memory.
        self.spark.catalog.clearCache()

    def run_pass(self, index, traced) -> tuple[float, list[float]]:
        """The pass time (its operations' latencies, without the checks
        between them) and the latencies."""
        undo = instrument(self.tracer, self.spark) if traced else (lambda: None)
        try:
            lat = []
            for op in self.ops:
                op_id = f"p{index}:{op.name}"
                self.op_pass[op_id] = (index, op.name)
                lat.append(self.run_op(op, op_id, traced))
            return sum(lat), lat
        finally:
            undo()

    def run(self, session_s: float) -> dict:
        self.spark.catalog.clearCache()
        self.setup()
        t0 = time.perf_counter()
        for _ in range(WARMUP_PASSES):
            self.warm_up()
        warmup_s = time.perf_counter() - t0

        # A fixed number of passes for a given --seconds: stopping on the
        # clock instead made the pass count, and with it pass_s, depend on
        # whether one pass happened to finish just before or just after it.
        n = max(1, round(self.seconds / PASS_SECONDS[self.workload]))
        passes = [self.run_pass(i, self.trace) for i in range(n)]
        lat = [x for p in passes for x in p[1]]
        pct, tail_s = tail(lat)
        pass_s = statistics.median(p[0] for p in passes)
        if self.workload == "ingest":
            events_per_s = self.n_events / statistics.median(lat)
        else:
            events_per_s = self.n_events / statistics.median(self.write_s)
        info = {
            "workload": self.workload, "seed": self.seed, "sf": self.sf,
            "events": self.n_events, "session_s": session_s,
            "setup_rounds_s": self.rounds, "warmup_s": warmup_s,
            "passes": n, "traced": self.trace,
            "samples": len(lat), "tail_percentile": pct,
            "op_ms": {op.name: [round(p[1][k] * 1e3, 1) for p in passes]
                      for k, op in enumerate(self.ops)},
            "failures": self.failures[:20],
        }
        if not self.trace:
            metrics = {
                "setup_s": session_s + statistics.median(self.rounds) + warmup_s,
                "pass_s": pass_s,
                "op_p50_ms": statistics.median(lat) * 1e3,
                "op_tail_ms": tail_s * 1e3,
                "events_per_s": events_per_s,
            }
        else:
            metrics, info["self_ms_per_pass"] = self.layer_metrics(list(range(n)))
            metrics["trace.pass_s"] = pass_s
        units = END_TO_END if not self.trace else PER_LAYER
        return {"metrics": {k: {"value": metrics[k], "unit": units[k]}
                            for k in units},
                "attempted": self.attempted, "failed": len(self.failures),
                "info": info}

    # ---------------------------------------------------------- layers
    def layer_metrics(self, traced_passes: list[int]) -> tuple[dict, dict]:
        """Per-layer metrics per pass (median over the traced passes), and
        the self time per pass of every span name."""
        # Counted after the passes: the Spark jobs this takes would
        # otherwise warm the JVM further before the traced passes than
        # the untraced run's passes are, and skew the tracing overhead.
        stats = {op.name: scope_counts(self.runner, op, self.n_events)
                 for op in self.ops}
        spans = self.tracer.spans
        selfs = self.tracer.self_times()
        dur = {s["id"]: s["end"] - s["start"] for s in spans}
        jobs = self.counter.counts()
        per_pass = {i: defaultdict(float) for i in traced_passes}
        self_ms = {i: defaultdict(float) for i in traced_passes}
        for op_id, (i, name) in self.op_pass.items():
            if i in per_pass:
                m, st = per_pass[i], stats[name]
                m["storage.files_read"] += st.get("files", 0)
                m["storage.rows_scanned"] += st.get("rows", 0)
                for k in ("pattern_rows", "window_rows", "groups_out"):
                    m[f"anomaly.{k}"] += st.get(k, 0)
                for k, v in zip(("jobs", "stages", "tasks"), jobs[op_id]):
                    m[f"spark.{k}"] += v
        ours = [s for s in spans
                # Spans outside an "op" span are the benchmark's own checks.
                if s["op"] in self.op_pass and self.op_pass[s["op"]][0] in per_pass
                and (s["parent"] is not None or s["name"] == "op")]
        probed = {s["op"]: bool(s.get("counts")) for s in ours if s["name"] == "probe"}
        for s in ours:
            i = self.op_pass[s["op"]][0]
            m, name, d = per_pass[i], s["name"], dur[s["id"]]
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
            self_ms[i][name] += selfs[s["id"]] * 1e3
            if name == "frontend.analyze":
                m["frontend.analyze_ms"] += d * 1e3
            elif name == "storage.open":
                m["storage.open_ms"] += d * 1e3
            elif name == "sqlgen":
                m["sqlgen.ms"] += d * 1e3
            elif name == "bigsql":
                m["bigsql.exec_ms"] += selfs[s["id"]] * 1e3
            elif name in ("compiler.join_multievent", "compiler.project_return"):
                m["join.ms"] += d * 1e3
            elif name == "collect" and parent == "multievent":
                m["join.ms"] += d * 1e3
                m["join.rows_out"] += s.get("rows_out", 0)
                if probed.get(s["op"]):
                    m["_probed_rows_out"] += s.get("rows_out", 0)
            elif name == "anomaly":
                inner = sum(dur[c["id"]] for c in spans if c["parent"] == s["id"]
                            and c["name"] in ("frontend.analyze", "storage.open"))
                m["anomaly.ms"] += (d - inner) * 1e3
            elif name == "probe":
                m["probe.ms"] += selfs[s["id"]] * 1e3
                counts = s.get("counts", {}).values()
                m["probe.rows"] += sum(counts)
                m["probe.rows_max"] = max(m["probe.rows_max"], *counts, 0)
                m["probe.cached_bytes"] = max(m["probe.cached_bytes"],
                                              s["cached_bytes"] if counts else 0)
                m["scheduler.broadcast_count"] += len(s.get("broadcast", ()))
        for m in per_pass.values():
            m["join.useful_ratio"] = (m["_probed_rows_out"] / m["probe.rows"]
                                      if m["probe.rows"] else 0.0)
        out = {k: statistics.median(per_pass[i][k] for i in traced_passes)
               for k in PER_LAYER if k not in _NOT_PER_PASS}
        writes = [dur[s["id"]] for s in spans if s["name"] == "storage.write"]
        out.update({
            "generator.ms": statistics.median(self.gen_s) * 1e3,
            "storage.write_ms": statistics.median(writes) * 1e3,
            "storage.bytes_partitioned": self.layout["partitioned"],
            "storage.bytes_flat": self.layout["flat"],
            "storage.files_written": self.layout["files"],
        })
        names = sorted({n for d in self_ms.values() for n in d})
        self_summary = {n: statistics.median(self_ms[i][n] for i in traced_passes)
                        for n in names}
        return out, self_summary


def report(result: dict, out=sys.stdout) -> None:
    """Every metric by name and unit, one per line."""
    info = result["info"]
    for k, m in result["metrics"].items():
        extra = ""
        if k == "op_tail_ms":
            extra = f"  (p{info['tail_percentile']} of {info['samples']} samples)"
        print(f"  {k:<28} {m['value']:>16.6g} {m['unit']}{extra}", file=out)
    print(f"  {'failed_frac':<28} {result['failed']:>9}/{result['attempted']}",
          file=out)
