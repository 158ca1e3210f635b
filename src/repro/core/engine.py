"""The AIQL query engine facade.

``execute`` runs the full pipeline: the front end
(``dependency.analyze_text``: parse → dependency compilation → semantic
analysis) → (multievent: per-pattern data queries + pruning-power
scheduling + left-deep join | anomaly: sliding window engine). ``plan``
exposes the scheduling decision for inspection and tests.

Per paper §2.3 the engine "synthesizes a SQL data query for every event
pattern and schedules the execution of these data queries", most pruning
first. Pruning power is scored without running any pattern: first the
number of predicates the pattern lowers to, then a bound on its rows, the
sum of the event count table (``storage.count_events``) over the query's
agent and days for the pattern's ``etype`` and ``op``. A side whose bound
is small is broadcast into its join. The whole query is then one Spark
plan: nothing is probed and nothing is cached, so a query holds no memory
beyond what computing its result takes.

The engine reads either an in-memory DataFrame (``events=``, tests) or the
partitioned store (``store=``, the jobs) — with a store, the query's
global time window and agent id prune Parquet partitions before any pattern
scan runs (paper §2.3 insight 2). Either way the count table is computed
once per source: by the store (until its next ``write``) or by the engine.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core import anomaly as anomaly_mod
from repro.core.analyzer import Analysis
from repro.core.compiler import join_multievent, pattern_df, project_return
from repro.core.dependency import analyze_text
from repro.core.scheduler import build_adjacency, order_patterns
from repro.monitor.schema import day_labels
from repro.monitor.storage import EventCounts

#: A non-driving pattern whose row bound is at or below this threshold is
#: broadcast into its join. The bound is never below the pattern's true
#: rows, so a broadcast side is never larger than this.
BROADCAST_ROWS = 500_000


@dataclass
class MultieventPlan:
    """The scheduling decision for one multievent query."""
    analysis: Analysis
    counts: dict = field(default_factory=dict)      # alias -> row bound
    order: list = field(default_factory=list)       # chosen join order
    broadcast: set = field(default_factory=set)     # aliases broadcast
    dfs: dict = field(default_factory=dict)         # alias -> pattern scan


class AIQLEngine:
    """Executes AIQL text against one event dataset."""

    def __init__(
        self,
        spark: SparkSession,
        events: DataFrame | None = None,
        store=None,
    ):
        if events is None and store is None:
            raise ValueError("need an events DataFrame or an EventStore")
        self.spark = spark
        self.events = events
        self.store = store
        self.event_counts = (store.event_counts if store is not None
                             else EventCounts(lambda: events))

    # ------------------------------------------------------------------
    def analyze(self, text: str) -> Analysis:
        """Front half of the pipeline (no execution)."""
        return analyze_text(text)

    def _source(self, ana: Analysis) -> DataFrame:
        q = ana.query
        if self.store is not None:
            return self.store.events_partitioned(q.time_range, q.agentid)
        return self.events

    def _row_bounds(self, ana: Analysis) -> dict[str, int]:
        """Alias -> the events in the query's agent and days with the
        pattern's ``etype`` and ``op``: at least the rows it matches."""
        q = ana.query
        days = None if q.time_range is None else set(day_labels(*q.time_range))
        per_kind: dict[tuple, int] = {}
        for (agentid, day, etype, op), n in self.event_counts().items():
            if ((q.agentid is None or agentid == q.agentid)
                    and (days is None or day in days)):
                per_kind[etype, op] = per_kind.get((etype, op), 0) + n
        return {ev.alias: per_kind.get((ana.event_etype[ev.alias], ev.op), 0)
                for ev in q.events}

    def _plan_multievent(self, ana: Analysis) -> MultieventPlan:
        src = self._source(ana)
        dfs = {ev.alias: pattern_df(src, ana, ev.alias) for ev in ana.query.events}
        if len(dfs) == 1:
            # Nothing to schedule: one synthesized data query.
            return MultieventPlan(ana, {}, list(dfs), set(), dfs)
        counts = self._row_bounds(ana)
        adj = build_adjacency(list(dfs), ana.join_conds, ana.query.temporal)
        # Most predicates first, then the smallest bound.
        power = {a: (-len(ana.pattern_preds[a]), counts[a]) for a in dfs}
        order = order_patterns(power, adj)
        # The first (driving) pattern is never broadcast — it is the side
        # the join pipeline streams from.
        bc = {a for a in order[1:] if counts[a] <= BROADCAST_ROWS}
        return MultieventPlan(ana, counts, order, bc, dfs)

    def plan(self, text: str) -> MultieventPlan:
        """Bound per-pattern rows and pick the join order (no Spark job
        once the count table exists)."""
        ana = self.analyze(text)
        if ana.query.mode != "multievent":
            raise ValueError("plan() applies to multievent queries")
        return self._plan_multievent(ana)

    # ------------------------------------------------------------------
    def execute(self, text: str) -> DataFrame:
        """Run an AIQL query, returning the result DataFrame with the
        output column names the query's return clause defines."""
        ana = self.analyze(text)
        if ana.query.mode == "anomaly":
            return anomaly_mod.run(self._source(ana), ana)
        plan = self._plan_multievent(ana)
        joined = join_multievent(plan.dfs, ana, plan.order, plan.broadcast)
        return project_return(joined, ana)
