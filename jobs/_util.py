"""Shared plumbing for job entrypoints (spark-submit compatible)."""
import argparse
import os
import sys
from typing import Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def set_submit_args(master: str = "local[*]", driver_memory: Optional[str] = None) -> None:
    """Put the JVM-launch settings in ``PYSPARK_SUBMIT_ARGS``, unless it is
    already set: the master, the driver host (loopback), the UI (off) and the
    driver memory (only when given). Spark reads them when the JVM launches,
    and child processes (the jobs run as subprocesses) inherit them."""
    memory = f"--driver-memory {driver_memory} " if driver_memory else ""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {master} {memory}--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )


def get_spark(shuffle_partitions: str = "64"):
    """The project's local SparkSession, for the jobs and the test suite.

    JVM-launch settings come from :func:`set_submit_args` (its defaults,
    unless ``PYSPARK_SUBMIT_ARGS`` is already set). Shuffle partitions, Arrow
    and the broadcast threshold are session configs; broadcast joins are off,
    so joins take the shuffle path.
    """
    set_submit_args()
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions", shuffle_partitions)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def base_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", type=float, default=1.0,
                   help="dataset scale relative to the benchmark analogs")
    p.add_argument("--names", nargs="*", default=None, help="dataset names")
    return p
