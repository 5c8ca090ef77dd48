"""Synthetic event streams for window-aggregate experiments.

The paper's cost model assumes a steady ingestion rate of ``η`` events
per time unit (§3.2.1). ``event_stream`` materializes exactly that: for
every integer tick ``t ∈ [0, horizon)`` it emits ``eta`` events with
deterministic keys/values, so the number of (event, window-instance)
pairs Spark produces matches the analytic cost model *exactly* — the
bridge the metering tests rely on.

Events carry both an integer ``tick`` (exact arithmetic for the rollup
operator and the oracle) and a ``ts`` TimestampType column (epoch-based,
one tick = one second) for Spark's ``window()`` function.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def event_stream_pdf(
    *, horizon: int, eta: int = 1, n_keys: int = 4, seed: int = 0
) -> pd.DataFrame:
    """Pandas form of the stream (used by the DuckDB oracle directly)."""
    n = horizon * eta
    g = np.random.default_rng(seed)
    ticks = np.repeat(np.arange(horizon, dtype=np.int64), eta)
    pdf = pd.DataFrame(
        {
            "tick": ticks,
            "key": g.integers(0, n_keys, n),
            "v": np.round(g.random(n) * 100.0, 3),
        }
    )
    pdf["ts"] = pd.to_datetime(pdf["tick"], unit="s")
    return pdf


def event_stream(
    spark: SparkSession,
    *,
    horizon: int,
    eta: int = 1,
    n_keys: int = 4,
    seed: int = 0,
) -> DataFrame:
    """A steady-rate event stream as a Spark DataFrame.

    Columns: ``tick`` (long, event time in integer units), ``ts``
    (timestamp, ``tick`` seconds after the epoch), ``key`` (long),
    ``v`` (double). Under the session defaults it is a scan over Arrow
    record batches, one partition per 10,000 rows, that carries no size
    estimate until the caller persists and materialises it.
    """
    return spark.createDataFrame(
        event_stream_pdf(horizon=horizon, eta=eta, n_keys=n_keys, seed=seed)
    )


def lineitem_stream(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    """TPC-H-lite ``lineitem`` viewed as an event stream.

    ``l_shipdate`` becomes event time in *days since 1992-01-01* (one
    tick = one day), ``l_partkey`` the grouping key and
    ``l_extendedprice`` the aggregated value — a realistic value
    distribution to complement the uniform synthetic stream.
    """
    from repro.synth_data import lineitem

    li = lineitem(spark, sf=sf, seed=seed)
    tick = F.datediff(F.col("l_shipdate"), F.lit("1992-01-01")).cast("long")
    return li.select(
        tick.alias("tick"),
        # One tick (day) = one engine time unit = one "second" for
        # Spark's window(); epoch-anchored so window starts align with
        # the model's m·s origin.
        F.timestamp_seconds(tick).alias("ts"),
        (F.col("l_partkey") % 8).alias("key"),
        F.col("l_extendedprice").alias("v"),
    )
