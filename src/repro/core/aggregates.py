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
Spark SQL text of its partial state, its merge step (combining partials
along a WCG edge), and its finalizer, so the plan executor can build
rewritten DataFrame plans without per-aggregate special cases. SQL text
costs one call into the JVM per expression, where a tree of ``Column``
objects costs one per node.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Semantics(Enum):
    """Which WCG edge type an aggregate may roll up along (§3.1)."""

    COVERED_BY = "covered_by"  # overlap-tolerant: MIN, MAX (Theorem 6)
    PARTITIONED_BY = "partitioned_by"  # needs disjoint pieces: COUNT/SUM/AVG


@dataclass(frozen=True)
class AggSpec:
    """Partial/merge/final decomposition of one aggregate function.

    ``partial`` aggregates raw events (value column ``v``) into the named
    partial-state columns; ``merge`` combines partial states of an
    upstream window into the same-named partial states of a downstream
    window; ``final`` turns partial state into the user-visible result.
    All three are Spark SQL text. For distributive functions merge ==
    partial-on-state; for algebraic AVG the state is (sum, count) and
    final divides.
    """

    name: str
    semantics: Semantics
    state_cols: tuple[str, ...]
    partial: tuple[str, ...]
    merge: tuple[str, ...]
    final: str

    def duckdb_expr(self, value_col: str) -> str:
        """The equivalent DuckDB aggregate expression, for the oracle."""
        fn = {"min": "min", "max": "max", "sum": "sum", "count": "count", "avg": "avg"}[
            self.name
        ]
        return f"{fn}({value_col})"


def _ordered_sum(c: str) -> str:
    """SUM of the pieces in ``c`` added in ascending order, so that plans
    delivering the same pieces in different orders (batch or streaming,
    however partitioned) return the same bits despite floating point."""
    fold = f"aggregate(array_sort(collect_list({c})), 0D, (acc, x) -> acc + x)"
    return f"if(count({c}) > 0, {fold}, NULL) AS {c}"


def _distributive(name: str, semantics: Semantics, merge: str | None = None) -> AggSpec:
    state = f"_{name}"
    return AggSpec(
        name=name,
        semantics=semantics,
        state_cols=(state,),
        partial=(f"{name}(v) AS {state}",),
        merge=(merge or f"{name}({state}) AS {state}",),
        final=state,
    )


AGGREGATES: dict[str, AggSpec] = {
    "min": _distributive("min", Semantics.COVERED_BY),
    "max": _distributive("max", Semantics.COVERED_BY),
    "sum": _distributive("sum", Semantics.PARTITIONED_BY, _ordered_sum("_sum")),
    # COUNT is distributive but its merge function g is SUM (§3.1).
    "count": _distributive("count", Semantics.PARTITIONED_BY, "sum(_count) AS _count"),
    # AVG is algebraic: g = (sum, count), h = sum/count (§3.1).
    "avg": AggSpec(
        name="avg",
        semantics=Semantics.PARTITIONED_BY,
        state_cols=("_sum", "_count"),
        partial=("sum(v) AS _sum", "count(v) AS _count"),
        merge=(_ordered_sum("_sum"), "sum(_count) AS _count"),
        final="_sum / _count",
    ),
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
