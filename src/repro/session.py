"""The one local SparkSession factory, shared by the test suite and the jobs.

Deployment settings come from the environment: ``SPARK_MASTER`` (default
``local[*]``) and ``SPARK_DRIVER_MEM`` (default: half of the machine's
memory, clamped to 2g–8g).
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def driver_memory(meminfo: str = "/proc/meminfo") -> str:
    """``SPARK_DRIVER_MEM`` if set, else ``MemTotal / 2`` clamped to 2g–8g
    (2g when ``meminfo`` is unreadable)."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open(meminfo) as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
    except (OSError, StopIteration):
        return "2g"
    return f"{min(8, max(2, kib // (2 * 1024 * 1024)))}g"


def get_spark(app: str) -> SparkSession:
    """A local SparkSession with the repo's settings; reuses a live one.

    Automatic broadcast joins are off: the baseline must not get broadcasts
    it did not measure, and the engine broadcasts explicitly.
    """
    # spark.driver.memory is read at JVM launch, not from SparkConf, so it
    # must be in PYSPARK_SUBMIT_ARGS before the first session starts.
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
