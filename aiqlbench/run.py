#!/usr/bin/env python3
"""AIQL benchmark: one workload, one seed, one run.

    python3 aiqlbench/run.py --workload investigate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout. Prints every metric by name and unit, then, as
the last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). Spark, DuckDB and temporary files stay under
``.aiqlbench_work/`` in the checkout; the spans and the full result record
of each run are written there too. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".aiqlbench_work"
WORKLOADS = ("investigate", "anomaly_sweep", "bigsql", "ingest")
SF = 0.002


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to 2..8 (as the tier-1 command)."""
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f
                       if line.startswith("MemTotal:"))
        return f"{min(8, max(2, kib // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def start_spark(cores: int, memory: str):
    """A local session with the test suite's settings; every scratch path
    points into the work directory."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # Both JVMs (the launcher and the driver) keep their files in the
    # checkout: no hsperfdata under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {memory} "
        f"--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.sql.warehouse.dir={WORK / 'warehouse'} "
        # The status tracker reads stage and task counts at the end of a
        # traced run; keep every job's record until then.
        f"--conf spark.ui.retainedJobs=100000 "
        f"--conf spark.ui.retainedStages=100000 "
        "pyspark-shell")
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("aiqlbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM to exit (it does on EOF)."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def source_id() -> dict:
    """The git SHA when the checkout is a repository, and always a hash of
    the program's sources."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    return {"git_sha": git, "src_sha256": h.hexdigest()[:16]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "engine.py").is_file():
        print(f"error: no program sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK / "run", ignore_errors=True)

    cores = os.cpu_count() or 1
    memory = driver_memory()
    t0 = time.perf_counter()
    spark = start_spark(cores, memory)
    session_s = time.perf_counter() - t0
    from harness import Measurement, report

    try:
        m = Measurement(spark, args.workload, args.seed, args.seconds,
                        bool(args.trace), SF, WORK / "run")
        result = m.run(session_s)
        result["info"].update(cores=cores, driver_memory=memory,
                              spark=spark.version, **source_id())
    finally:
        stop_spark(spark)

    info = result["info"]
    print(f"aiqlbench {args.workload} seed={args.seed} trace={args.trace} "
          f"sf={SF} events={info['events']} cores={cores} "
          f"driver_memory={memory} spark={info['spark']} "
          f"git={info['git_sha']} src={info['src_sha256']}")
    report(result)
    for failure in info["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1))
    if m.tracer is not None:
        m.tracer.write(WORK / "results" / f"{tag}.spans.jsonl")
        print("  self time per pass, ms:")
        for name, ms in info["self_ms_per_pass"].items():
            print(f"    {name:<26} {ms:>12.1f}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
