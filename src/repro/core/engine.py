"""The AIQL query engine facade.

``execute`` runs the full pipeline: the front end
(``dependency.analyze_text``: parse → dependency compilation → semantic
analysis) → (multievent: per-pattern data queries + pruning-power
scheduling + left-deep join with measured broadcasts | anomaly: sliding
window engine). ``plan`` exposes the scheduling decision for inspection and
tests.

Per paper §2.3 the engine "synthesizes a SQL data query for every event
pattern and schedules the execution of these data queries": each pattern's
pruned scan is executed once and **persisted**, the probe that measures its
pruning power doubles as its materialization, and the join then combines
the already-materialized (usually tiny) per-pattern results — never
re-scanning the event table the way the one-big-SQL baseline must.

The engine reads either an in-memory DataFrame (``events=``, tests) or the
partitioned store (``store=``, the jobs) — with a store, the query's
global time window and agent id prune Parquet partitions before any pattern
scan runs (paper §2.3 insight 2).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core import anomaly as anomaly_mod
from repro.core.analyzer import Analysis
from repro.core.compiler import join_multievent, pattern_df, project_return
from repro.core.dependency import analyze_text
from repro.core.scheduler import build_adjacency, order_patterns


@dataclass
class MultieventPlan:
    """The scheduling decision for one multievent query."""
    analysis: Analysis
    counts: dict = field(default_factory=dict)      # alias -> matched rows
    order: list = field(default_factory=list)       # chosen join order
    broadcast: set = field(default_factory=set)     # aliases broadcast
    dfs: dict = field(default_factory=dict)         # alias -> persisted scan


class AIQLEngine:
    """Executes AIQL text against one event dataset.

    ``broadcast_rows``: a synthesized pattern whose measured cardinality is
    at or below this threshold is broadcast into its join — the engine knows
    the true count from its pruning-power probe, so unlike a static
    ``autoBroadcastJoinThreshold`` this is never a guess.
    """

    def __init__(
        self,
        spark: SparkSession,
        events: DataFrame | None = None,
        store=None,
        broadcast_rows: int = 500_000,
    ):
        if events is None and store is None:
            raise ValueError("need an events DataFrame or an EventStore")
        self.spark = spark
        self.events = events
        self.store = store
        self.broadcast_rows = broadcast_rows
        self._pinned: list[DataFrame] = []

    # ------------------------------------------------------------------
    def analyze(self, text: str) -> Analysis:
        """Front half of the pipeline (no execution)."""
        return analyze_text(text)

    def _source(self, ana: Analysis) -> DataFrame:
        q = ana.query
        if self.store is not None:
            return self.store.events_partitioned(q.time_range, q.agentid)
        return self.events

    def _release(self) -> None:
        """Unpersist the previous query's materialized pattern results."""
        for df in self._pinned:
            df.unpersist(blocking=False)
        self._pinned = []

    def _plan_multievent(self, ana: Analysis) -> MultieventPlan:
        src = self._source(ana)
        dfs = {ev.alias: pattern_df(src, ana, ev.alias) for ev in ana.query.events}
        if len(dfs) == 1:
            # Nothing to schedule: one synthesized data query, no probe.
            alias = next(iter(dfs))
            return MultieventPlan(ana, {}, [alias], set(), dfs)
        # Probe = materialize: the count that measures pruning power also
        # caches the pattern's (pruned, usually tiny) result for the join.
        # The synthesized per-pattern data queries are independent, so they
        # run as concurrent Spark jobs (paper §2.3: "execute these
        # sub-queries in parallel").
        for a in dfs:
            dfs[a] = dfs[a].persist()
            self._pinned.append(dfs[a])
        with ThreadPoolExecutor(max_workers=min(8, len(dfs))) as pool:
            counts = dict(zip(dfs, pool.map(lambda d: d.count(), dfs.values())))
        adj = build_adjacency(list(counts), ana.join_conds, ana.query.temporal)
        order = order_patterns(counts, adj)
        bc = {a for a, c in counts.items() if c <= self.broadcast_rows}
        # The first (driving) pattern is never broadcast — it is the side
        # the join pipeline streams from.
        bc.discard(order[0])
        return MultieventPlan(ana, counts, order, bc, dfs)

    def plan(self, text: str) -> MultieventPlan:
        """Probe per-pattern cardinalities and pick the join order."""
        ana = self.analyze(text)
        if ana.query.mode != "multievent":
            raise ValueError("plan() applies to multievent queries")
        self._release()
        return self._plan_multievent(ana)

    # ------------------------------------------------------------------
    def execute(self, text: str) -> DataFrame:
        """Run an AIQL query, returning the result DataFrame with the
        output column names the query's return clause defines."""
        ana = self.analyze(text)
        self._release()
        if ana.query.mode == "anomaly":
            return anomaly_mod.run(self._source(ana), ana,
                                   pin=self._pinned.append)
        plan = self._plan_multievent(ana)
        joined = join_multievent(plan.dfs, ana, plan.order, plan.broadcast)
        return project_return(joined, ana)
