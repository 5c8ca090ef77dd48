"""Structured Streaming execution of rewritten plans.

The min-cost WCG forest maps onto Spark's *chained time-window
aggregations* (SPARK-40925, Spark ≥ 3.5): the root window aggregates the
watermarked stream with ``window(ts, r, s)``; every child re-aggregates
its parent's windowed output with ``window(window_time(w), r1, s1)``.

``window_time`` is a parent instance ``[u, v)``'s end minus 1 μs, so
``window()`` sends the instance to every child instance ``[a, a + r1)``
with ``a < v ≤ a + r1``. Keeping only those with ``a ≤ u`` leaves exactly
the child instances that contain it (Definition 2), the batch rollup's
assignment. From a tumbling parent the filter drops nothing (DESIGN.md
§2); from a hopping parent (covered-by MIN/MAX) it drops the child
instances that only overlap the parent instance.

Append-mode emission is gated on the watermark, so a window only emits
once the watermark passes its end; callers either keep the stream
running or push a sentinel event past the horizon (what the tests do).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec
from repro.core.mincost import MinCostWCG
from repro.core.windows import Window
from repro.engine.window_agg import window_id


def build_streaming_partials(
    events: DataFrame, mincost: MinCostWCG, agg: AggSpec
) -> dict[Window, DataFrame]:
    """Per-window streaming DataFrames with a ``w`` window column and the
    aggregate's partial-state columns, built along the forest."""
    src = events.withWatermark("ts", "0 seconds")
    partials: dict[Window, DataFrame] = {}
    for w in mincost.topological():
        parent = mincost.parent[w]
        if parent is None:
            win = F.window(F.col("ts"), f"{w.r} seconds", f"{w.s} seconds")
            df = src.groupBy(win.alias("w"), F.col("key")).agg(*map(F.expr, agg.partial))
        else:
            win = F.window(
                F.window_time(F.col("w")), f"{w.r} seconds", f"{w.s} seconds"
            )
            df = (
                partials[parent].withColumn("cw", win)
                .where("cw.start <= w.start")
                .groupBy(F.col("cw").alias("w"), F.col("key"))
                .agg(*map(F.expr, agg.merge))
            )
        partials[w] = df
    return partials


def finalize_streaming(partials: DataFrame, w: Window, agg: AggSpec) -> DataFrame:
    """Same output schema as the batch engine, negative starts dropped."""
    return (
        partials.select(
            F.lit(window_id(w)).alias("window_id"),
            F.unix_timestamp(F.col("w.start")).alias("win_start"),
            F.unix_timestamp(F.col("w.end")).alias("win_end"),
            F.col("key"),
            F.expr(agg.final).alias("value"),
        )
        .where(F.col("win_start") >= 0)
    )


def run_streaming_plan(
    spark,
    input_path: str,
    schema,
    mincost: MinCostWCG,
    agg: AggSpec,
    *,
    sink_prefix: str = "wcg_out",
) -> dict[Window, str]:
    """Execute the rewritten plan as streaming queries over a file source.

    One append-mode query per *exposed* window (factor windows exist only
    as upstream stages inside each chain — their results are never sunk),
    each into a memory sink named ``{sink_prefix}_{r}_{s}``. Runs with
    the ``availableNow`` trigger and blocks until every query drains.
    Returns the sink table name per window.

    Each stateful operator keeps one state store per shuffle partition
    and visits every one of them in each micro-batch, so the queries
    start with one partition per core; a query reads the session conf
    when it starts, and the session's own value is restored after. If a
    query fails to start or to drain, every query started is stopped.
    """
    events = spark.readStream.schema(schema).parquet(input_path)
    partials = build_streaming_partials(events, mincost, agg)
    queries = {}
    saved = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism)
    try:
        for w in sorted(mincost.exposed()):
            out = finalize_streaming(partials[w], w, agg)
            name = f"{sink_prefix}_{w.r}_{w.s}"
            q = (
                out.writeStream.format("memory")
                .queryName(name)
                .outputMode("append")
                .trigger(availableNow=True)
                .start()
            )
            queries[w] = (name, q)
        for name, q in queries.values():
            q.awaitTermination()
    except BaseException:
        for name, q in queries.values():
            q.stop()
        raise
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", saved)
    return {w: name for w, (name, q) in queries.items()}
