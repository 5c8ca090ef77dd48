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

SUM and AVG keep their sum as ``decimal(38, 18)``: the root adds its
events in double, as a plain ``sum(v)`` does, and casts the total once per
group; every merge after it adds decimals, which is exact. So an answer
depends only on the root partials, whatever the plan or the order in
which Spark delivers them, and BL returns the double sums a plain
``sum(v)`` does (a sum of −0.0 alone returns 0.0). The state sets the
input domain of every plan alike: a sum must be finite and below 10^20 in
magnitude. A root sum outside it raises, as does a merged one under ANSI
mode (Spark's default).
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
    final divides. SUM and AVG need finite sums below 10^20 in magnitude.
    """

    name: str
    semantics: Semantics
    state_cols: tuple[str, ...]
    partial: tuple[str, ...]
    merge: tuple[str, ...]
    final: str

    def duckdb_expr(self, value_col: str) -> str:
        """The equivalent DuckDB aggregate expression, for the oracle."""
        return f"{self.name}({value_col})"


#: A root's double sum as the exact state that SUM and AVG merge. Spark
#: casts a NaN or infinite double to a NULL decimal, which a merge would
#: skip, so a sum of 10^20 or more in magnitude, NaN and ±∞ included, raises.
_EXACT_SUM = (
    "cast(if(abs(sum(v)) >= 1e20, raise_error('SUM and AVG need finite sums below 1e20'), "
    "sum(v)) AS decimal(38, 18)) AS _sum"
)


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
    "sum": AggSpec(
        "sum", Semantics.PARTITIONED_BY, ("_sum",), (_EXACT_SUM,), ("sum(_sum) AS _sum",),
        "double(_sum)",
    ),
    # COUNT is distributive but its merge function g is SUM (§3.1).
    "count": _distributive("count", Semantics.PARTITIONED_BY, "sum(_count) AS _count"),
    # AVG is algebraic: g = (sum, count), h = sum/count (§3.1).
    "avg": AggSpec(
        name="avg",
        semantics=Semantics.PARTITIONED_BY,
        state_cols=("_sum", "_count"),
        partial=(_EXACT_SUM, "count(v) AS _count"),
        merge=("sum(_sum) AS _sum", "sum(_count) AS _count"),
        final="double(_sum) / _count",
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
