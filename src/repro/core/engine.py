"""The AIQL query engine facade.

``execute`` runs the full pipeline: the front end
(``analyzer.analyze``: parse → dependency compilation → semantic
analysis) → (multievent: pruning-power scheduling, then the big SQL in
that schedule over the query's scope | anomaly: sliding window engine).
``plan`` exposes the scheduling decision for inspection and tests.

Per paper §2.3 the engine "synthesizes a SQL data query for every event
pattern and schedules the execution of these data queries", most pruning
first. Pruning power is scored without running any pattern: first the
number of predicates the pattern lowers to, then a bound on its rows: the
events of the pattern's ``etype`` and ``op`` in the query's agent and days
(``EventStore.scope_counts``, read from the store's statistics without a
Spark job). A side whose bound is small is broadcast into its join. The
whole query is then one SQL statement, the synthesized big SQL with its
FROM/JOIN list in that order and a ``BROADCAST`` hint
(``compiler.join_multievent``): nothing is probed and nothing is cached,
so a query holds no memory beyond what computing its result takes.

Their sum over every ``etype`` and ``op`` is the query's scope. Most
investigation queries name one host and one day, a few thousand events:
a scope no larger than a broadcast side (``BROADCAST_ROWS``) is read as
one partition, so ``distinct``, the anomaly aggregate and its history
window run in the scan's task instead of shuffling into
``spark.sql.shuffle.partitions`` tasks, and a single-pattern or anomaly
query is one Spark job. Larger scopes keep the partitioned plan.

The engine reads the partitioned store: the query's global time window and
agent id prune Parquet partitions before any pattern scan runs (paper §2.3
insight 2); only the store reads them as partitions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core import anomaly as anomaly_mod
from repro.core.analyzer import Analysis, analyze
from repro.core.compiler import join_multievent, project_return
from repro.core.scheduler import build_adjacency, order_patterns
from repro.monitor.storage import EventStore

#: A non-driving pattern whose row bound is at or below this threshold is
#: broadcast into its join. The bound is never below the pattern's true
#: rows, so a broadcast side is never larger than this. A query whose whole
#: scope is this small is read as one partition.
BROADCAST_ROWS = 500_000


@dataclass
class MultieventPlan:
    """The scheduling decision for one multievent query."""
    analysis: Analysis
    counts: dict = field(default_factory=dict)      # alias -> row bound
    order: list = field(default_factory=list)       # chosen join order
    broadcast: set = field(default_factory=set)     # aliases broadcast
    scope_rows: int = 0           # events in the query's agent and days
    one_partition: bool = False   # scope_rows <= BROADCAST_ROWS


class AIQLEngine:
    """Executes AIQL text against one event store."""

    def __init__(self, spark: SparkSession, store: EventStore):
        self.spark = spark
        self.store = store

    # ------------------------------------------------------------------
    def analyze(self, text: str) -> Analysis:
        """Front half of the pipeline (no execution)."""
        return analyze(text)

    def _source(self, ana: Analysis, scope_rows: int) -> DataFrame:
        """The events in the query's scope. A scope of at most
        ``BROADCAST_ROWS`` events, the most the engine hands one task as a
        broadcast side, is read as one partition: ``coalesce`` is narrow,
        the pattern filters still reach the scan, and ``distinct``, the
        anomaly aggregate and its history window need no shuffle."""
        q = ana.query
        src = self.store.events_partitioned(q.time_range, q.agentid)
        return src.coalesce(1) if scope_rows <= BROADCAST_ROWS else src

    def _plan_multievent(self, ana: Analysis) -> MultieventPlan:
        per_kind = self.store.scope_counts(ana.query.time_range, ana.query.agentid)
        scope_rows = sum(per_kind.values())
        aliases = [ev.alias for ev in ana.query.events]
        # One pattern: nothing to schedule, one synthesized data query.
        counts, order, bc = {}, aliases, set()
        if len(aliases) > 1:
            # A pattern matches at most the scope's events of its kind.
            counts = {ev.alias: per_kind.get((ana.event_etype[ev.alias], ev.op), 0)
                      for ev in ana.query.events}
            adj = build_adjacency(aliases, ana.join_conds, ana.query.temporal)
            # Most predicates first, then the smallest bound.
            power = {a: (-len(ana.pattern_preds[a]), counts[a]) for a in aliases}
            order = order_patterns(power, adj)
            # The first (driving) pattern is never broadcast — it is the
            # side the join pipeline streams from.
            bc = {a for a in order[1:] if counts[a] <= BROADCAST_ROWS}
        return MultieventPlan(ana, counts, order, bc, scope_rows,
                              scope_rows <= BROADCAST_ROWS)

    def plan(self, text: str) -> MultieventPlan:
        """Bound per-pattern rows, pick the join order and decide whether
        the scope is one partition (no Spark job)."""
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
            scope = self.store.scope_counts(ana.query.time_range, ana.query.agentid)
            return anomaly_mod.run(self._source(ana, sum(scope.values())), ana)
        plan = self._plan_multievent(ana)
        joined = join_multievent(self._source(ana, plan.scope_rows), ana,
                                 plan.order, plan.broadcast)
        return project_return(joined, ana)
