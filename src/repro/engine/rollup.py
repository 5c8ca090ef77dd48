"""The sub-aggregate rollup operator — the heart of the rewritten plan.

A window ``W1`` is computed from the partial states of a window ``W2``:
the assignment operator (:mod:`repro.engine.window_agg`) sends every
``W2`` instance to each ``W1`` instance that fully contains it (Definition
2's covering set), and merges them per (``W1`` instance, key). Plans run
it as a level of their chain (:mod:`repro.engine.executor`), which also
meters it. :func:`rollup` and :func:`assignment_count`, the one-window
operator and its count, are kept for the benchmark's per-operator report
(``perfbench``'s ``meter_plan`` and ``sp_pairs``).

Under "covered by" semantics the pieces *overlap* — sound for MIN/MAX
(Theorem 6). Under "partitioned by" the upstream window is tumbling and
the pieces are disjoint (Theorem 4), sound for every distributive or
algebraic aggregate (Theorem 5).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.aggregates import AggSpec
from repro.core.windows import Window
from repro.engine.window_agg import aggregate, codes, decode, query


def rollup(upstream: DataFrame, child: Window, agg: AggSpec) -> DataFrame:
    """Partial states of ``child`` computed from ``upstream`` partials."""
    assign = codes(child, 0, 1, "win_start", "win_end")
    return query(upstream, lambda t: decode(
        f"({aggregate(t, assign, agg.merge, agg.state_cols)})", 0, 1, f"_c + {child.r}",
        agg.state_cols,
    ))


def assignment_count(upstream: DataFrame, child: Window, horizon: int) -> int:
    """Metering: number of (upstream row, downstream instance) pairs the
    rollup processes, each row the interval ``[win_start, win_end)``,
    restricted to downstream instances fully inside ``[0, horizon]`` —
    the executed analogue of the cost model's ``n_1 · M(W_1, W_2)`` (per key)."""
    assign = codes(child, 0, 1, "win_start", "win_end")
    return query(upstream, lambda t: (
        f"SELECT count(*) FROM (SELECT explode({assign}) AS _c FROM {t}) "
        f"WHERE _c + {child.r} <= {horizon}"
    )).collect()[0][0]
