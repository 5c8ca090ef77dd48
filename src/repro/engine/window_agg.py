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

A plan is SQL text over its input, compiled to one statement that Spark
analyses once (:func:`query`): each DataFrame call would be one more
Catalyst analysis of a plan that holds the caller's events.
"""
from __future__ import annotations

import uuid
from typing import Callable, Iterable, Sequence

from pyspark.sql import DataFrame

from repro.core.aggregates import AggSpec
from repro.core.windows import Window


def window_id(w: Window) -> str:
    """Stable identifier of a window in the plan output, ``"r/s"``."""
    return f"{w.r}/{w.s}"


def query(rows: DataFrame, sql: Callable[[str], str]) -> DataFrame:
    """The statement ``sql(t)``, which reads ``rows`` as the table ``t``,
    in one Catalyst analysis.

    ``t`` is a temp view of a unique name, which the session catalog
    drops once the statement is analysed: the analysed plan holds
    ``rows``' own plan, so the view is no longer needed. Dropping it with
    ``spark.catalog.dropTempView``, or binding ``rows`` with
    ``spark.sql(…, df=…)``, would uncache ``rows``, which the caller may
    have persisted. Callers nest a plan's levels as subqueries: with a
    CTE per level Catalyst took up to 1.8× as long to analyse one."""
    spark, view = rows.sparkSession, f"_rows_{uuid.uuid4().hex}"
    rows.createTempView(view)
    try:
        return spark.sql(sql(view))
    finally:
        spark._jsparkSession.sessionState().catalog().dropTempView(view)


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


def aggregate(source: str, assign: str, exprs: Sequence[str], cols: Sequence[str]) -> str:
    """SQL of the operator: each row of the ``FROM`` clause ``source``
    goes to every code in the SQL array ``assign``, and ``exprs`` over
    ``cols`` merge each (``_c``, key)."""
    assigned = f"SELECT explode({assign}) AS _c, key, {', '.join(cols)} FROM {source}"
    return f"SELECT _c, key, {', '.join(exprs)} FROM ({assigned}) GROUP BY _c, key"


def roots(events: str, assign: str, exprs: Sequence[str], *, hint: str | None = None) -> str:
    """SQL of :func:`aggregate` of the table ``events`` at ``tick ≥ 0``
    (events before 0 belong to no instance) by ``exprs`` over ``v``; the
    events are read through the partitioning ``hint`` first, if any:
    ``REPARTITION(key)`` shuffles them by key, ``COALESCE(1)`` reads them
    as one partition. Either satisfies every ``GROUP BY _c, key`` above."""
    if hint:
        events = f"(SELECT /*+ {hint} */ * FROM {events})"
    return aggregate(f"{events} WHERE tick >= 0", assign, exprs, ("v",))


def decode(level: str, i: int, k: int, end: str, cols: Sequence[str]) -> str:
    """SQL of node ``i``'s rows of ``level`` as ``(win_start, win_end, key,
    *cols)``; ``end`` is SQL for the end of the instance starting at ``_c div k``."""
    return (
        f"SELECT _c div {k} AS win_start, {end} AS win_end, key, {', '.join(cols)} "
        f"FROM {level} WHERE pmod(_c, {k}) = {i}"
    )


def partial_window_agg(events: DataFrame, w: Window, agg: AggSpec) -> DataFrame:
    """Partial states ``(win_start, win_end, key, *state)`` of ``w`` from
    raw events: the root level of a one-window plan."""
    assign = codes(w, 0, 1, "tick", "tick + 1")
    return query(events, lambda t: decode(
        f"({roots(t, assign, agg.partial)})", 0, 1, f"_c + {w.r}", agg.state_cols
    ))


def finalize(partials: DataFrame, w: Window, agg: AggSpec) -> DataFrame:
    """Partial state → user-visible rows tagged with the window id."""
    return partials.selectExpr(
        f"'{window_id(w)}' AS window_id", "win_start", "win_end", "key", f"{agg.final} AS value"
    )
