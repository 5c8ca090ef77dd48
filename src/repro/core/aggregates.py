"""Aggregate-function taxonomy and partial/merge/final decomposition.

Implements §3.1 of the paper (the Gray et al. data-cube taxonomy applied
to window sets):

* distributive (MIN/MAX/COUNT/SUM) and algebraic (AVG) functions can be
  computed by aggregating sub-aggregates over a *partition* (Theorem 5);
* MIN/MAX remain correct even when the pieces *overlap* (Theorem 6), so
  they may roll up along general "covered by" edges, while COUNT/SUM/AVG
  require "partitioned by" edges (footnote 5 of the paper);
* holistic functions (MEDIAN, …) cannot roll up at all and are rejected.

Each supported aggregate is described by an :class:`AggSpec` holding the
Spark column expressions for its partial state, its merge step (combining
partials along a WCG edge), and its finalizer, so the plan executor can
build rewritten DataFrame plans without per-aggregate special cases.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from pyspark.sql import Column
from pyspark.sql import functions as F


class Semantics(Enum):
    """Which WCG edge type an aggregate may roll up along (§3.1)."""

    COVERED_BY = "covered_by"  # overlap-tolerant: MIN, MAX (Theorem 6)
    PARTITIONED_BY = "partitioned_by"  # needs disjoint pieces: COUNT/SUM/AVG


@dataclass(frozen=True)
class AggSpec:
    """Partial/merge/final decomposition of one aggregate function.

    ``partial_exprs(value_col)`` aggregates raw events into the named
    partial-state columns; ``merge_exprs()`` combines partial states of an
    upstream window into the same-named partial states of a downstream
    window; ``final_expr()`` turns partial state into the user-visible
    result column. For distributive functions merge == partial-on-state;
    for algebraic AVG the state is (sum, count) and final divides.
    """

    name: str
    semantics: Semantics
    state_cols: tuple[str, ...]
    partial_exprs: Callable[[str], list[Column]] = field(repr=False)
    merge_exprs: Callable[[], list[Column]] = field(repr=False)
    final_expr: Callable[[], Column] = field(repr=False)

    def duckdb_expr(self, value_col: str) -> str:
        """The equivalent DuckDB aggregate expression, for the oracle."""
        fn = {"min": "min", "max": "max", "sum": "sum", "count": "count", "avg": "avg"}[
            self.name
        ]
        return f"{fn}({value_col})"


def _ordered_sum(c: Column) -> Column:
    """SUM of the pieces in ``c`` added in ascending order, so that plans
    delivering the same pieces in different orders (batch or streaming,
    however partitioned) return the same bits despite floating point."""
    fold = F.aggregate(F.array_sort(F.collect_list(c)), F.lit(0.0), lambda acc, x: acc + x)
    return F.when(F.count(c) > 0, fold)


def _distributive(name: str, semantics: Semantics, spark_fn, merge_fn=None) -> AggSpec:
    state = f"_{name}"
    return AggSpec(
        name=name,
        semantics=semantics,
        state_cols=(state,),
        partial_exprs=lambda v, fn=spark_fn, s=state: [fn(F.col(v)).alias(s)],
        merge_exprs=lambda fn=merge_fn or spark_fn, s=state: [fn(F.col(s)).alias(s)],
        final_expr=lambda s=state: F.col(s),
    )


def _count() -> AggSpec:
    # COUNT is distributive but its merge function g is SUM (§3.1).
    state = "_count"
    return AggSpec(
        name="count",
        semantics=Semantics.PARTITIONED_BY,
        state_cols=(state,),
        partial_exprs=lambda v, s=state: [F.count(F.col(v)).alias(s)],
        merge_exprs=lambda s=state: [F.sum(F.col(s)).alias(s)],
        final_expr=lambda s=state: F.col(s),
    )


def _avg() -> AggSpec:
    # AVG is algebraic: g = (sum, count), h = sum/count (§3.1).
    return AggSpec(
        name="avg",
        semantics=Semantics.PARTITIONED_BY,
        state_cols=("_sum", "_count"),
        partial_exprs=lambda v: [
            F.sum(F.col(v)).alias("_sum"),
            F.count(F.col(v)).alias("_count"),
        ],
        merge_exprs=lambda: [
            _ordered_sum(F.col("_sum")).alias("_sum"),
            F.sum(F.col("_count")).alias("_count"),
        ],
        final_expr=lambda: F.col("_sum") / F.col("_count"),
    )


AGGREGATES: dict[str, AggSpec] = {
    "min": _distributive("min", Semantics.COVERED_BY, F.min),
    "max": _distributive("max", Semantics.COVERED_BY, F.max),
    "sum": _distributive("sum", Semantics.PARTITIONED_BY, F.sum, _ordered_sum),
    "count": _count(),
    "avg": _avg(),
}

HOLISTIC = frozenset({"median", "rank", "percentile", "mode"})


def get_aggregate(name: str) -> AggSpec:
    """Look up an aggregate by SQL name; reject holistic functions.

    Holistic aggregates have no constant-size sub-aggregate (§3.1), so the
    paper's rewriting does not apply; callers should fall back to the
    baseline plan for them.
    """
    key = name.lower()
    if key in HOLISTIC:
        raise ValueError(
            f"{name} is holistic: it cannot be computed from sub-aggregates "
            "(Gray et al. taxonomy); use the baseline plan"
        )
    try:
        return AGGREGATES[key]
    except KeyError:
        raise ValueError(f"unknown aggregate {name!r}; known: {sorted(AGGREGATES)}")
