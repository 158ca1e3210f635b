"""Domain-specific event storage vs the generic baseline layout.

Paper §2.1/§2.3: AIQL's storage is *domain-optimized* — partitioned along
the temporal (time window) and spatial (agent ID) dimensions so queries
touch only the relevant slices, with sub-queries executing in parallel. On
Spark the analog is a Parquet layout partitioned by ``agentid`` and
``day``: a query's global time window and agent constraint become one
partition filter, pruned against the file listing. A store lists each
layout once, on its first read, and reuses the opened ``DataFrame`` until
its next ``write``.

The paper's comparison target stores the same rows in a *generic*
relational layout (a flat PostgreSQL heap table): row-oriented, no
column projection, no partition pruning — every pattern in the big-SQL
baseline re-reads the whole table. The analog here is a flat headered CSV
(``events_flat``): schema-checked but row-oriented and unpruned, which is
what the semantics-agnostic baseline of Table A scans. (DESIGN.md §4
documents this substitution.)

A store also counts the events of each (``agentid``, ``day``, ``etype``,
``op``) with Arrow, no Spark job, once per ``write``: the statistics the
scheduler bounds a pattern's rows with, summed over a query's scope.
"""
from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable

import pyarrow as pa
import pyarrow.dataset as ds
from pyspark.sql import DataFrame, SparkSession

from repro.monitor.schema import day_labels, event_arrow_schema, event_spark_schema

#: The keys of the event count table; ``agentid`` and ``day`` are the
#: partition keys, ``etype`` and ``op`` the two predicates every pattern has.
COUNT_KEYS = ("agentid", "day", "etype", "op")


def count_events(path: str) -> dict[tuple, int]:
    """Rows per ``COUNT_KEYS`` slice of the partitioned layout at ``path``,
    read by Arrow one (``agentid``, ``day``) file's ``etype``/``op`` at a time."""
    schema, kinds = event_arrow_schema(), list(COUNT_KEYS[2:])
    hive = ds.partitioning(pa.schema([schema.field(k) for k in COUNT_KEYS[:2]]), flavor="hive")
    counts: dict[tuple, int] = {}
    for frag in ds.dataset(path, schema=schema, partitioning=hive).get_fragments():
        part = ds.get_partition_keys(frag.partition_expression)
        table = frag.to_table(columns=kinds).group_by(kinds).aggregate([([], "count_all")])
        for r in table.to_pylist():
            k = (part["agentid"], part["day"], r["etype"], r["op"])
            counts[k] = counts.get(k, 0) + r["count_all"]
    return counts


class EventStore:
    """Writer/reader for the two on-disk layouts of one event dataset.

    Each layout is opened once, on its first read, and kept until this
    store's next ``write``: the opened ``DataFrame`` holds the file listing,
    so a query does not list the store again. Another writer to the same
    ``base`` is therefore not seen until this store's own ``write``, as
    with any path-based Spark ``DataFrame``."""

    def __init__(self, spark: SparkSession, base: str | Path):
        self.spark = spark
        self.base = Path(base)
        self._opened: dict = {}
        self._lock = threading.Lock()

    @property
    def partitioned_path(self) -> str:
        return str(self.base / "events_partitioned")

    @property
    def flat_path(self) -> str:
        return str(self.base / "events_flat")

    def write(self, df: DataFrame) -> None:
        """Persist both layouts (overwrite) and forget the opened layouts
        and the count table of the rows they held, even if the write fails
        part way."""
        try:
            (
                # One file per (agentid, day) partition: compact listing and
                # scan-sized files instead of writers × partitions fragments.
                df.repartition("agentid", "day")
                .write.mode("overwrite")
                .partitionBy("agentid", "day")
                .parquet(self.partitioned_path)
            )
            (
                df.write.mode("overwrite")
                .option("header", True)
                .csv(self.flat_path)
            )
        finally:
            with self._lock:
                self._opened.clear()

    def _open(self, name: str, read: Callable):
        """``read()``, called on the first request after a ``write`` and
        kept until the next; concurrent first requests share one call."""
        with self._lock:
            if name not in self._opened:
                self._opened[name] = read()
            return self._opened[name]

    def event_counts(self) -> dict[tuple, int]:
        """``count_events`` of the partitioned layout, built on first use:
        ingest time stays the time to write the two layouts."""
        return self._open("counts", lambda: count_events(self.partitioned_path))

    def scope_counts(self, time_range, agentid) -> dict[tuple, int]:
        """(``etype``, ``op``) -> the events that ``events_partitioned``
        reads for the same ``time_range`` and ``agentid``."""
        days = None if time_range is None else day_labels(*time_range)
        out: dict[tuple, int] = {}
        for (agent, day, etype, op), n in self.event_counts().items():
            if (agentid is None or agent == agentid) and (days is None or day in days):
                out[etype, op] = out.get((etype, op), 0) + n
        return out

    def events_flat(self) -> DataFrame:
        """The generic row-oriented layout (the baseline's side): flat CSV,
        read with the event schema. ``multiLine`` keeps a quoted field
        that holds a line break in its row. Spark writes NULL as an unquoted
        empty field and an empty string as ``""``; reading with NUL as the
        null value keeps the two apart. NUL cannot occur in a path, an
        executable name, an IP or a uid, so no stored value reads as it."""
        return self._open("flat", lambda: (
            self.spark.read.schema(event_spark_schema())
            .option("header", True)
            .option("multiLine", True)
            .option("nullValue", "\u0000")
            .csv(self.flat_path)))

    def events_partitioned(
        self,
        time_range: tuple[int, int] | None = None,
        agentid: int | None = None,
    ) -> DataFrame:
        """The domain-partitioned layout, pre-pruned to the query's spatial
        and temporal scope. The ``agentid``/``day`` filter (one SQL text)
        hits partition directories, so pruning happens at file-listing
        time, before any row is read."""
        df = self._open("partitioned", lambda: (
            self.spark.read.schema(event_spark_schema())
            .parquet(self.partitioned_path)))
        scope = []
        if agentid is not None:
            scope.append(f"agentid = {agentid}")
        if time_range is not None:
            days = ", ".join(f"'{d}'" for d in day_labels(*time_range))
            scope.append(f"day IN ({days})")
        return df.filter(" AND ".join(scope)) if scope else df
