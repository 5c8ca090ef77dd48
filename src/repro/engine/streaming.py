"""Structured Streaming execution of rewritten plans.

The min-cost WCG forest maps onto Spark's *chained time-window
aggregations* (SPARK-40925, Spark ≥ 3.5): the root window aggregates the
watermarked stream with ``window(ts, r, s)``; every child re-aggregates
its parent's windowed output with ``window(window_time(w), r1, s1)``.

Under "partitioned by" semantics this is exactly the batch rollup
operator: the parent is tumbling, so ``window_time`` (the parent
instance's end minus 1 μs) lands a parent instance ``[u, v)`` precisely
in the child instances that fully contain it — every child start is a
multiple of ``s1``, ``s1`` is a multiple of the parent range, and ``v``
is a multiple of the parent range, so the child windows containing
``v − ε`` all start at or before ``u`` (see the proof sketch in
DESIGN.md). "Covered by" rollups from *hopping* parents need the
overlap-tolerant containment explode, which streaming append mode
cannot express after an aggregation; those plans run in batch only
(:func:`repro.engine.executor.execute_wcg`) — this module raises for them.

Append-mode emission is gated on the watermark, so a window only emits
once the watermark passes its end; callers either keep the stream
running or push a sentinel event past the horizon (what the tests do).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec, Semantics
from repro.core.mincost import MinCostWCG
from repro.core.windows import Window
from repro.engine.window_agg import window_id


def streaming_supported(mincost: MinCostWCG) -> bool:
    """True iff every rollup edge has a tumbling parent (the
    partitioned-by shape chained streaming aggregation can express)."""
    return all(
        p is None or p.is_tumbling for p in mincost.parent.values()
    )


def build_streaming_partials(
    events: DataFrame, mincost: MinCostWCG, agg: AggSpec, *, watermark_delay: str = "0 seconds"
) -> dict[Window, DataFrame]:
    """Per-window streaming DataFrames with a ``w`` window column and the
    aggregate's partial-state columns, built along the forest."""
    if not streaming_supported(mincost):
        raise ValueError(
            "plan contains a rollup from a hopping parent; covered-by "
            "rollups run in batch only (see module docstring)"
        )
    src = events.withWatermark("ts", watermark_delay)
    partials: dict[Window, DataFrame] = {}
    for w in mincost.topological():
        parent = mincost.parent[w]
        if parent is None:
            win = F.window(F.col("ts"), f"{w.r} seconds", f"{w.s} seconds")
            df = src.groupBy(win.alias("w"), F.col("key")).agg(*map(F.expr, agg.partial))
        else:
            up = partials[parent]
            win = F.window(
                F.window_time(F.col("w")), f"{w.r} seconds", f"{w.s} seconds"
            )
            df = up.groupBy(win.alias("w"), F.col("key")).agg(*map(F.expr, agg.merge))
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
    """
    events = spark.readStream.schema(schema).parquet(input_path)
    partials = build_streaming_partials(events, mincost, agg)
    queries = {}
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
    return {w: name for w, (name, q) in queries.items()}
