"""Shared plumbing for the spark-submit job entrypoints.

Each job is a thin wrapper over a library function that takes a
SparkSession and returns/prints results, so the same code path is
exercised by pytest (via the ``spark`` fixture, which starts from the
same :data:`SESSION_DEFAULTS`) and by ``spark-submit jobs/<name>.py``.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

#: Session configs every entrypoint (jobs, tests, benchmark) runs with.
SESSION_DEFAULTS = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    # Build every pandas input as a scan over Arrow record batches, one
    # partition per batch, never as an inline LocalRelation. Under the
    # default 48 MB threshold, every statement's analysed plan carried the
    # input's rows (walking them cost a warm query on 60,000 events about
    # 15 ms of optimization) and every task Java-serialised them from
    # their ParallelCollectionPartitions, cache or no cache.
    "spark.sql.execution.arrow.localRelationThreshold": "0",
    # Let AQE coalesce the shuffles of persisted plans (partials that a
    # caller caches, as the benchmark's per-window metering does) like any
    # other; by default a cached plan keeps every one of its shuffle
    # partitions. The engine's own plans persist nothing.
    "spark.sql.optimizer.canChangeCachedPlanOutputPartitioning": "true",
}


def configure(app: str) -> SparkSession.Builder:
    """A SparkSession set up with :data:`SESSION_DEFAULTS`, not yet started."""
    b = SparkSession.builder.appName(app)
    for k, v in SESSION_DEFAULTS.items():
        b = b.config(k, v)
    return b


def get_spark(app: str) -> SparkSession:
    return configure(app).getOrCreate()
