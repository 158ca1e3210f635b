"""Domain-specific event storage vs the generic baseline layout.

Paper §2.1/§2.3: AIQL's storage is *domain-optimized* — partitioned along
the temporal (time window) and spatial (agent ID) dimensions so queries
touch only the relevant slices, with sub-queries executing in parallel. On
Spark the analog is a Parquet layout partitioned by ``agentid`` and
``day``: a query's global time window and agent constraint become partition
filters, pruned at file-listing time.

The paper's comparison target stores the same rows in a *generic*
relational layout (a flat PostgreSQL heap table): row-oriented, no
column projection, no partition pruning — every pattern in the big-SQL
baseline re-reads the whole table. The analog here is a flat headered CSV
(``events_flat``): schema-checked but row-oriented and unpruned, which is
what the semantics-agnostic baseline of Table A scans. (DESIGN.md §4
documents this substitution.)
"""
from __future__ import annotations

from pathlib import Path

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.monitor.schema import event_spark_schema


class EventStore:
    """Writer/reader for the two on-disk layouts of one event dataset."""

    def __init__(self, spark: SparkSession, base: str | Path):
        self.spark = spark
        self.base = Path(base)

    @property
    def partitioned_path(self) -> str:
        return str(self.base / "events_partitioned")

    @property
    def flat_path(self) -> str:
        return str(self.base / "events_flat")

    def write(self, df: DataFrame) -> None:
        """Persist both layouts (overwrite)."""
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

    def events_flat(self) -> DataFrame:
        """The generic row-oriented layout (the baseline's side): flat CSV,
        read with the event schema (empty fields are NULLs)."""
        return (
            self.spark.read.schema(event_spark_schema())
            .option("header", True)
            .csv(self.flat_path)
        )

    def events_partitioned(
        self,
        time_range: tuple[int, int] | None = None,
        agentid: int | None = None,
    ) -> DataFrame:
        """The domain-partitioned layout, pre-pruned to the query's spatial
        and temporal scope. The ``day``/``agentid`` filters hit partition
        directories, so pruning happens at file-listing time, before any
        row is read."""
        df = (self.spark.read.schema(event_spark_schema())
              .parquet(self.partitioned_path))
        if agentid is not None:
            df = df.filter(F.col("agentid") == agentid)
        if time_range is not None:
            lo, hi = time_range
            days = [
                d.strftime("%Y-%m-%d")
                for d in pd.date_range(
                    pd.Timestamp(lo, unit="ms"),
                    pd.Timestamp(hi - 1, unit="ms"),
                    freq="D",
                    normalize=True,
                )
            ]
            df = df.filter(F.col("day").isin(days))
        return df
