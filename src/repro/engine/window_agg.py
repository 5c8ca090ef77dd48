"""The window assignment operator, shared by every plan in the engine.

A row that carries an integer interval ``[u, v)`` is assigned to every
instance ``[a, a + r)`` of a window ``W⟨r, s⟩`` that contains it
(``a ≤ u``, ``v ≤ a + r``, ``a = j·s ≥ 0``: Definition 2's covering set),
and merged per (instance, key). A root window reads the events, each the
unit interval ``[tick, tick + 1)``; a child reads its parent's states.

An instance is one bigint *code* ``_c = a·K + i``, its start ``a`` and
the index ``i`` of its window among the ``K`` nodes of a plan, so one
operator serves every window of a plan at once (``K = 1`` for a window on
its own). The code is exact while ``a·K < 2^63``, e.g. for every tick
below 10^15 in a plan of up to 9,000 windows.

A tumbling window's one candidate is ``a = ⌊u/s⌋·s``, kept if
``v ≤ a + r``; any other window's are the codes of the starts
``a ∈ [max(0, ⌈(v − r)/s⌉·s), ⌊u/s⌋·s]``, an arithmetic sequence of step
``s·K``. Every expression is code-generated (``sequence``, ``concat``,
``explode``, ``if``): Spark interprets a higher-order lambda
(``transform(…, x -> …)``) row by row.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec
from repro.core.windows import Window


def window_id(w: Window) -> str:
    """Stable identifier of a window in the plan output, ``"r/s"``."""
    return f"{w.r}/{w.s}"


def codes(w: Window, i: int, k: int, u: str, v: str) -> str:
    """SQL array of the codes of ``w``'s instances (node ``i`` of ``k``)
    that contain the interval ``[u, v)``."""
    u, v = f"({u})", f"({v})"
    hi = f"{u} - pmod({u}, {w.s})"
    if w.is_tumbling:
        return f"if({v} <= {hi} + {w.r}, array(({hi}) * {k} + {i}), array())"
    # ⌈(v − r)/s⌉·s = (v − r) + pmod(r − v, s), exact for negatives too.
    lo = f"greatest(0, {v} - {w.r} + pmod({w.r} - {v}, {w.s}))"
    seq = f"sequence(({lo}) * {k} + {i}, ({hi}) * {k} + {i}, {w.s * k}L)"
    return f"if({lo} <= {hi}, {seq}, array())"


def concat(arrays: Iterable[str]) -> str:
    """SQL concatenation of SQL arrays."""
    return f"concat({', '.join(arrays)})"


def aggregate(rows: DataFrame, assign: str, exprs: Sequence[str], cols: Sequence[str]) -> DataFrame:
    """The operator: each row of ``rows`` goes to every code in the SQL
    array ``assign``, and ``exprs`` over ``cols`` merge each (``_c``, key).
    It is two DataFrame calls, as each call costs a Catalyst analysis."""
    assigned = rows.selectExpr(f"explode({assign}) AS _c", "key", *cols)
    return assigned.groupBy("_c", "key").agg(*map(F.expr, exprs))


def roots(events: DataFrame, assign: str, agg: AggSpec) -> DataFrame:
    """:func:`aggregate` of the events at ``tick ≥ 0`` (events before 0
    belong to no instance) into partial states."""
    return aggregate(events.where("tick >= 0"), assign, agg.partial, ("v",))


def decode(level: DataFrame, i: int, k: int, end: str, cols: Sequence[str]) -> DataFrame:
    """Node ``i``'s rows of ``level`` as ``(win_start, win_end, key, *cols)``;
    ``end`` is SQL for the end of the instance starting at ``_c div k``."""
    return level.where(f"pmod(_c, {k}) = {i}").selectExpr(
        f"_c div {k} AS win_start", f"{end} AS win_end", "key", *cols
    )


def partial_window_agg(events: DataFrame, w: Window, agg: AggSpec) -> DataFrame:
    """Partial states ``(win_start, win_end, key, *state)`` of ``w`` from
    raw events: the root level of a one-window plan."""
    level = roots(events, codes(w, 0, 1, "tick", "tick + 1"), agg)
    return decode(level, 0, 1, f"_c + {w.r}", agg.state_cols)


def finalize(partials: DataFrame, w: Window, agg: AggSpec) -> DataFrame:
    """Partial state → user-visible rows tagged with the window id."""
    return partials.selectExpr(
        f"'{window_id(w)}' AS window_id", "win_start", "win_end", "key", f"{agg.final} AS value"
    )
