"""Structured Streaming demo of the rewritten (factor-window) plan.

Writes a synthetic stream to parquet, runs the Example-7 WCG-FW plan as
chained streaming window aggregations (append mode, availableNow), and
prints the first rows of each exposed window's sink.

Run: spark-submit jobs/streaming_demo.py
"""
from __future__ import annotations

import tempfile

from pyspark.sql import SparkSession

from repro.core.aggregates import get_aggregate
from repro.core.factor import algorithm2
from repro.core.windows import Window
from repro.engine.streaming import run_streaming_plan
from repro.engine.streams import event_stream

WINDOWS = [Window(x, x) for x in (20, 30, 40)]
HORIZON = 240


def run(spark: SparkSession) -> None:
    agg = get_aggregate("sum")
    m = algorithm2(WINDOWS, agg, eta=1)
    print(m.describe())
    path = tempfile.mkdtemp(prefix="wcg_stream_") + "/events"
    ev = event_stream(spark, horizon=HORIZON, eta=2, n_keys=2, seed=3)
    sentinel = spark.createDataFrame(
        [(HORIZON + 1000, 0, 0.0)], "tick long, key long, v double"
    ).selectExpr("tick", "timestamp_seconds(tick) as ts", "key", "v")
    ev.unionByName(sentinel).write.parquet(path)
    sinks = run_streaming_plan(
        spark, path, "tick long, ts timestamp, key long, v double", m, agg
    )
    for w, table in sorted(sinks.items()):
        df = spark.table(table).where(f"win_end <= {HORIZON}")
        print(f"\nwindow {w}: {df.count()} rows (first 5)")
        df.orderBy("win_start", "key").show(5)


if __name__ == "__main__":
    from _common import get_spark

    run(get_spark("streaming_demo"))
