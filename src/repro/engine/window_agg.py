"""The window assignment operator, shared by every plan in the engine.

A row that carries an integer interval ``[u, v)`` is assigned to every
instance ``[a, a + r)`` of a window ``W⟨r, s⟩`` that contains it:
``a ≤ u`` and ``v ≤ a + r``, over the paper's instances ``a = j·s,
j ≥ 0`` (Definition 2's covering set). Rows are then merged per
(instance, key).

* A root window reads raw events, each the unit interval
  ``[tick, tick + 1)``: an event belongs to ``[a, a + r)`` iff
  ``a ≤ tick < a + r``. Events before 0 belong to no instance.
* A rollup reads its parent's partial states, one row per (parent
  instance ``[win_start, win_end)``, key); see :mod:`repro.engine.rollup`.

For a tumbling window the only candidate is ``a = ⌊u/s⌋·s``, a
projection plus the containment test ``v ≤ a + r``; for a unit interval
at ``tick ≥ 0`` that test always holds, so a tumbling root is the
projection alone. Any other window enumerates the candidate starts
``a ∈ [max(0, ⌈(v − r)/s⌉·s), ⌊u/s⌋·s]`` with ``sequence`` +
``explode``, the trick Catalyst's sliding ``window()`` uses on
timestamps; an empty range drops the row.

Each operator is a few DataFrame calls over Spark SQL text: every call
costs a Catalyst analysis, and SQL text one JVM call per expression.

``partial_window_agg`` computes a window's partial states
``(win_start, win_end, key, *state)`` from raw events; ``finalize`` turns
them into the user-visible ``(window_id, win_start, win_end, key, value)``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec
from repro.core.windows import Window


def window_id(w: Window) -> str:
    """Stable identifier of a window in the union output, ``"r/s"``."""
    return f"{w.r}/{w.s}"


def _starts(w: Window, u: str, v: str) -> str:
    """SQL for the start of each instance of ``w`` that may contain
    ``[u, v)``: ``⌊u/s⌋·s`` for a tumbling window (the caller tests
    containment), else the exploded array of every containing start."""
    hi = f"{u} - pmod({u}, {w.s})"
    if w.is_tumbling:
        return hi
    # ⌈(v − r)/s⌉·s = (v − r) + pmod(r − v, s), exact for negatives too.
    lo = f"greatest(0, {v} - {w.r} + pmod({w.r} - {v}, {w.s}))"
    return f"explode(if({lo} <= {hi}, sequence({lo}, {hi}, {w.s}L), array()))"


def assign(intervals: DataFrame, w: Window, *cols: str) -> DataFrame:
    """One row per (input row ``[win_start, win_end)``, containing
    instance of ``w``): the instance's start in ``_start``, then ``cols``."""
    start = _starts(w, "win_start", "win_end")
    if w.is_tumbling:
        intervals = intervals.where(f"win_end <= {start} + {w.r}")
    return intervals.selectExpr(f"{start} AS _start", *cols)


def merge_instances(assigned: DataFrame, w: Window, exprs: tuple[str, ...]) -> DataFrame:
    """Partial states ``(win_start, win_end, key, *state)`` of ``w``:
    ``exprs`` over the rows assigned to each (instance, key)."""
    return assigned.groupBy(
        F.expr("_start AS win_start"), F.expr(f"_start + {w.r} AS win_end"), "key"
    ).agg(*map(F.expr, exprs))


def unit_intervals(events: DataFrame) -> DataFrame:
    """Events at ``tick ≥ 0`` as unit intervals ``[tick, tick + 1)``."""
    return events.where("tick >= 0").selectExpr(
        "tick AS win_start", "tick + 1 AS win_end", "key", "v"
    )


def partial_window_agg(events: DataFrame, w: Window, agg: AggSpec) -> DataFrame:
    """Aggregate raw events into per-(instance, key) partial states."""
    start = _starts(w, "tick", "(tick + 1)")
    assigned = events.where("tick >= 0").selectExpr(f"{start} AS _start", "key", "v")
    return merge_instances(assigned, w, agg.partial)


def finalize(partials: DataFrame, w: Window, agg: AggSpec) -> DataFrame:
    """Partial state → user-visible rows tagged with the window id."""
    return partials.selectExpr(
        f"'{window_id(w)}' AS window_id", "win_start", "win_end", "key", f"{agg.final} AS value"
    )
