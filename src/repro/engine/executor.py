"""Execute plans (min-cost WCG forests) on Spark DataFrames.

``execute_wcg`` is the engine's one interpreter of a forest: BL
(``execute_baseline``) is the forest with no edges, and shared paired
slicing (:mod:`repro.engine.sliced_exec`) the forest rooted at its slice
set. :func:`run_chain` compiles the forest into one SQL statement: it
lays the events out once, then runs one level of the assignment
operator (:mod:`repro.engine.window_agg`) per depth of the forest, each
a subquery over the rows of every window at that depth.
Level ``L`` routes each row of level ``L − 1`` to its window's children
(``CASE pmod(_c, K) WHEN i THEN …``) and carries the rows of exposed
windows forward under their own code: a group of one merges to itself,
so this level is §3.3's MultiCast, with nothing persisted or unioned.
A factor window's rows drop out after its children's level, and one
projection decodes the last level. The events are read as one
partition when the root level fits one task (:func:`_fits_one_task`), so
the chain runs as one task with no exchange, and are shuffled by key
once otherwise; either way no level's ``GROUP BY _c, key`` needs a
further exchange (EXPERIMENTS.md §5 weighs both layouts). The same
builder meters the plan in a second statement, :meth:`ExecutionResult.pairs`:
its levels carry every node's rows to the last level, each with ``_n``,
its node's assignment pairs at its own level, so each level runs once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from pyspark.sql import DataFrame

from repro.core.aggregates import AggSpec
from repro.core.mincost import MinCostWCG
from repro.core.windows import Window
from repro.engine.window_agg import aggregate, codes, concat, query, roots, window_id


@dataclass
class ExecutionResult:
    """The plan's output, and ``pairs(horizon)``, the metering count of
    the chain that ran it, in one statement that runs each of its levels
    once: a row ``(window_id, pairs)`` per node with pairs, its (input
    row, instance) assignments at its own level over its instances that
    end by ``horizon``. A slice set has no ``r/s``: its ``window_id`` is
    ``''``."""

    output: DataFrame
    pairs: Callable[[int], DataFrame]

    def unpersist(self) -> None:
        """Nothing to release: a chain persists nothing."""


def _fits_one_task(events: DataFrame, pairs_per_event: float) -> bool:
    """Whether the root level fits one task: Catalyst's estimate of the
    size of ``events`` times the root level's ``pairs_per_event`` is
    within Spark's target bytes per task. An input is sized exactly only
    once it is persisted and materialised; any other input, whether built
    from a list, an RDD or a pandas frame (a scan over Arrow batches),
    reports ``spark.sql.defaultSizeInBytes``, so it does not fit."""
    spark = events.sparkSession
    size = events._jdf.queryExecution().optimizedPlan().stats().sizeInBytes()
    target = spark._jvm.org.apache.spark.network.util.JavaUtils.byteStringAsBytes(
        spark.conf.get("spark.sql.adaptive.advisoryPartitionSizeInBytes")
    )
    return size * pairs_per_event <= target


def run_chain(
    events: DataFrame, parent: Mapping[Hashable, Hashable | None], exposed: set[Window],
    agg: AggSpec,
) -> ExecutionResult:
    """Run the forest ``parent`` (node → the node it rolls up, ``None``
    for a root: a window, or a slice set that reads events) with the rows
    of ``exposed`` as output. A node that is not exposed has children."""
    nodes, k, u = list(parent), len(parent), f"_c div {len(parent)}"
    # SQL for the end of each node's instance that starts at u.
    end = {n: f"{u} + {n.r}" if isinstance(n, Window) else n.end(u) for n in nodes}
    depth = dict.fromkeys(nodes, 0)
    for _ in nodes:  # k passes settle every depth of a forest of k nodes
        depth = {n: 0 if p is None else depth[p] + 1 for n, p in parent.items()}
    # The model's root cost per event: r/s pairs per root window, one per slice set.
    per_event = sum(n.r / n.s if isinstance(n, Window) else 1 for n in nodes if parent[n] is None)
    hint = "COALESCE(1)" if _fits_one_task(events, per_event) else "REPARTITION(key)"

    def chain(t: str, carry: set, count: bool = False) -> str:
        """SQL of the chain's last level over the events table ``t``. A
        level carries the rows of ``carry`` on under their own code and
        drops the others' once it has routed them to their children. With
        ``count``, a row holds ``_n``, its node's assignment pairs at its
        own level, in place of the state: a carried row is a group of one
        that keeps its own ``_n``."""
        at_roots = concat(
            codes(n, i, k, "tick", "tick + 1") if isinstance(n, Window) else n.codes(i, k, "tick")
            for i, n in enumerate(nodes) if parent[n] is None
        )
        sql = roots(t, at_roots, ("count(*) AS _n",) if count else agg.partial, hint=hint)
        for d in range(1, max(depth.values()) + 1):
            routes = " ".join(
                f"WHEN {i} THEN " + concat(["array(_c)"] * (p in carry) + [
                    codes(c, nodes.index(c), k, u, end[p]) for c in nodes if parent[c] == p
                ])
                for i, p in enumerate(nodes) if depth[p] == d - 1 and p in parent.values()
            )
            own = ", ".join(str(i) for i, n in enumerate(nodes) if depth[n] == d)
            sql = aggregate(
                f"({sql})", f"CASE pmod(_c, {k}) {routes} ELSE array(_c) END",
                (f"sum(if(pmod(_c, {k}) IN ({own}), 1, _n)) AS _n",) if count else agg.merge,
                ("_n",) if count else agg.state_cols,
            )
        return sql

    at = f"int(pmod(_c, {k})) + 1"
    ids = ", ".join(f"'{window_id(n)}'" if n in exposed else "''" for n in nodes)
    ranges = ", ".join(str(n.r) if n in exposed else "0" for n in nodes)
    output = query(events, lambda t: (
        f"SELECT element_at(array({ids}), {at}) AS window_id, {u} AS win_start, "
        f"{u} + element_at(array({ranges}), {at}) AS win_end, key, {agg.final} AS value "
        f"FROM ({chain(t, exposed)})"
    ))
    ends = " ".join(f"WHEN {i} THEN {end[n]}" for i, n in enumerate(nodes))
    names = ", ".join(f"'{window_id(n)}'" if isinstance(n, Window) else "''" for n in nodes)
    return ExecutionResult(output, lambda horizon: query(events, lambda t: (
        f"SELECT element_at(array({names}), {at}) AS window_id, sum(_n) AS pairs "
        f"FROM ({chain(t, set(nodes), count=True)}) "
        f"WHERE CASE pmod(_c, {k}) {ends} END <= {horizon} GROUP BY pmod(_c, {k})"
    )))


def execute_wcg(events: DataFrame, mincost: MinCostWCG, agg: AggSpec) -> ExecutionResult:
    """Run the plan; the output has the rows of every exposed window."""
    return run_chain(events, mincost.parent, set(mincost.exposed()), agg)


def execute_baseline(events: DataFrame, windows: list[Window], agg: AggSpec) -> DataFrame:
    """Run the Figure-1(b) plan, each window from raw: the forest with no edges."""
    return run_chain(events, dict.fromkeys(windows), set(windows), agg).output
