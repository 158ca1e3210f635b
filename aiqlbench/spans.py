"""In-memory spans for the traced run, recorded at the program's public
entry points.

A span is a named interval with a parent span and the id of the operation
it belongs to. Spans stay in a list while the run goes on and are written
out once, when it ends. Self time is a span's duration minus the time its
children cover; the recorder is single-threaded (the program's own worker
threads never call an instrumented function), so children never overlap.

``instrument`` wraps the functions the program calls internally, so a
traced pass runs the same ``AIQLEngine.execute`` and ``run_baseline`` as an
untraced one: ``AIQLEngine.analyze``, ``EventStore.events_partitioned/
events_flat``, the engine's per-pattern probe (``_plan_multievent``), the
``join_multievent`` and ``project_return`` that ``execute`` calls,
``anomaly.run`` and ``baseline.baseline_sql``. The benchmark puts spans
around its own calls (``execute``, ``run_baseline``, ``collect``,
``EventStore.write``, ``gen_events``) with ``Tracer.span``.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> self time in seconds."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "self": selfs[s["id"]]}, default=str))
                f.write("\n")


def maybe(tracer: Tracer | None, name: str, **attrs):
    """A span when tracing, else a no-op context."""
    return tracer.span(name, **attrs) if tracer is not None else nullcontext({})


def storage_memory(spark) -> int:
    """Spark storage memory in use: cached blocks and broadcasts."""
    status = spark.sparkContext._jsc.sc().getExecutorMemoryStatus()
    it = status.valuesIterator()
    used = 0
    while it.hasNext():
        t = it.next()
        used += t._1() - t._2()
    return used


def instrument(tracer: Tracer, spark):
    """Wrap the internally-called entry points; returns an undo function."""
    from repro.core import anomaly, baseline, engine
    from repro.core.engine import AIQLEngine
    from repro.monitor.storage import EventStore

    def probed(rec, plan):
        # Outside the probe span, so reading storage memory is not probe time.
        rec.update(counts=plan.counts, order=plan.order,
                   broadcast=sorted(plan.broadcast),
                   cached_bytes=storage_memory(spark))

    targets = [
        (AIQLEngine, "analyze", "frontend.analyze", None),
        (EventStore, "events_partitioned", "storage.open", None),
        (EventStore, "events_flat", "storage.open", None),
        (AIQLEngine, "_plan_multievent", "probe", probed),
        (engine, "join_multievent", "compiler.join_multievent", None),
        (engine, "project_return", "compiler.project_return", None),
        (anomaly, "run", "anomaly.run", None),
        (baseline, "baseline_sql", "sqlgen", None),
    ]
    saved = []
    for owner, attr, name, after in targets:
        fn = owner.__dict__[attr]

        def wrapper(*a, __fn=fn, __name=name, __after=after, **kw):
            with tracer.span(__name) as rec:
                out = __fn(*a, **kw)
            if __after is not None:
                __after(rec, out)
            return out

        saved.append((owner, attr, fn))
        setattr(owner, attr, functools.wraps(fn)(wrapper))

    def undo():
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return undo


class SparkCounter:
    """Spark jobs, stages and tasks per operation.

    A job group is thread-local, and the engine's probe jobs run on its own
    worker threads, so grouping would miss them. Job ids, though, are handed
    out in submission order by every thread: an operation's jobs are the
    ids issued between its start and its end. Their stages and tasks are
    read from the status tracker once the run is over.
    """

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.ranges: dict[str, tuple[int, int]] = {}

    def next_job_id(self) -> int:
        return self.sc._jsc.sc().dagScheduler().numTotalJobs()

    @contextmanager
    def op(self, op_id: str):
        lo = self.next_job_id()
        try:
            yield
        finally:
            self.ranges[op_id] = (lo, self.next_job_id())

    def counts(self, timeout_s: float = 10.0) -> dict[str, tuple[int, int, int]]:
        """op id -> (jobs, stages run, tasks run)."""
        tracker = self.sc.statusTracker()
        last = max((hi for _, hi in self.ranges.values()), default=0) - 1
        deadline = time.monotonic() + timeout_s
        while last >= 0 and time.monotonic() < deadline:
            info = tracker.getJobInfo(last)
            if info is not None and info.status in ("SUCCEEDED", "FAILED"):
                break
            time.sleep(0.05)
        out = {}
        for op_id, (lo, hi) in self.ranges.items():
            stages = tasks = 0
            for jid in range(lo, hi):
                info = tracker.getJobInfo(jid)
                for sid in (info.stageIds if info is not None else ()):
                    st = tracker.getStageInfo(sid)
                    if st is not None and st.numCompletedTasks > 0:
                        stages += 1
                        tasks += st.numCompletedTasks
            out[op_id] = (hi - lo, stages, tasks)
        return out
