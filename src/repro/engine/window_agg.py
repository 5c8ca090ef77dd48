"""The window assignment operator, shared by every plan in the engine.

A row that carries an integer interval ``[win_start, win_end)`` is
assigned to every instance ``[a, a + r)`` of a window ``W⟨r, s⟩`` that
contains it: ``a ≤ win_start`` and ``win_end ≤ a + r``, over the paper's
instances ``a = j·s, j ≥ 0`` (Definition 2's covering set). Rows are then
merged per (instance, key).

* A root window reads raw events, each the unit interval
  ``[tick, tick + 1)``: an event belongs to ``[a, a + r)`` iff
  ``a ≤ tick < a + r``. Events before 0 belong to no instance.
* A rollup reads its parent's partial states, one row per (parent
  instance, key); see :mod:`repro.engine.rollup`.

For a tumbling window the only candidate is ``a = ⌊u/s⌋·s``, a
projection plus the containment filter. Any other window enumerates the
candidate starts ``j ∈ [max(0, ⌈(v − r)/s⌉), ⌊u/s⌋]`` with
``sequence`` + ``explode``, the trick Catalyst's sliding ``window()``
uses on timestamps; an empty range drops the row.

``partial_window_agg`` computes a window's partial states
``(win_start, win_end, key, *state)`` from raw events; ``finalize`` turns
them into the user-visible ``(window_id, win_start, win_end, key, value)``.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec
from repro.core.windows import Window

def window_id(w: Window) -> str:
    """Stable identifier of a window in the union output, ``"r/s"``."""
    return f"{w.r}/{w.s}"


def _candidate_starts(r: int, s: int) -> Column:
    """Array of the starts ``a = j·s`` whose instance ``[a, a + r)``
    contains ``[win_start, win_end)``."""
    u, v = F.col("win_start"), F.col("win_end")
    # ⌈(v − r)/s⌉ via floor((x + s − 1)/s); exact for negatives too.
    lo = F.greatest(F.lit(0), F.floor((v - F.lit(r) + F.lit(s - 1)) / F.lit(s)))
    hi = F.floor(u / F.lit(s))
    return F.when(lo <= hi, F.sequence(lo * s, hi * s, F.lit(s).cast("long"))).otherwise(
        F.array().cast("array<long>")
    )


def assign(intervals: DataFrame, w: Window) -> DataFrame:
    """One row per (input row, containing instance of ``w``), the
    instance's start in ``_start``."""
    if not w.is_tumbling:
        return intervals.withColumn("_start", F.explode(_candidate_starts(w.r, w.s)))
    u, start = F.col("win_start"), F.col("_start")
    return intervals.withColumn("_start", u - F.pmod(u, F.lit(w.s))).where(
        (start >= 0) & (F.col("win_end") <= start + w.r)
    )


def unit_intervals(events: DataFrame) -> DataFrame:
    """Events as unit intervals ``[tick, tick + 1)`` with their key and value."""
    return events.select(
        F.col("tick").alias("win_start"),
        (F.col("tick") + 1).alias("win_end"),
        F.col("key"),
        F.col("v"),
    )


def aggregate_instances(
    intervals: DataFrame, w: Window, agg: AggSpec, exprs: list[Column]
) -> DataFrame:
    """Partial states of ``w``: ``exprs`` over each instance's assigned rows."""
    return (
        assign(intervals, w)
        .groupBy(F.col("_start").alias("win_start"), F.col("key"))
        .agg(*exprs)
        .select(
            F.col("win_start"),
            (F.col("win_start") + w.r).alias("win_end"),
            F.col("key"),
            *[F.col(c) for c in agg.state_cols],
        )
    )


def partial_window_agg(events: DataFrame, w: Window, agg: AggSpec) -> DataFrame:
    """Aggregate raw events into per-(instance, key) partial states."""
    return aggregate_instances(unit_intervals(events), w, agg, agg.partial_exprs("v"))


def finalize(partials: DataFrame, w: Window, agg: AggSpec) -> DataFrame:
    """Partial state → user-visible rows tagged with the window id."""
    return partials.select(
        F.lit(window_id(w)).alias("window_id"),
        F.col("win_start"),
        F.col("win_end"),
        F.col("key"),
        agg.final_expr().alias("value"),
    )
