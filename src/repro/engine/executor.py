"""Execute plans (min-cost WCG forests) on Spark DataFrames.

``execute_wcg`` is the engine's one interpreter of a
:class:`~repro.core.mincost.MinCostWCG`; ``execute_baseline`` runs the
Figure-1(b) plan as the forest with no edges. It repartitions the events
by key; every window then runs the same assignment operator in
topological order: root windows aggregate the raw stream
(:func:`partial_window_agg`), children roll up their parent's partial
states (:func:`rollup`). An (instance, key) aggregate over rows
partitioned by key needs no exchange, so no window plans another one.
The result unions the finalized rows of every *exposed* window — factor
windows are computed but contribute no output rows, exactly as §4
requires. Windows with several children are shared sub-plans (the
MultiCast of §3.3), persisted so that Spark does not recompute them.

The one shuffle gives up Spark's map-side partial aggregation and any
parallelism beyond one task per key, for fewer stages. That pays where
fixed per-stage costs dominate, as at 10^4–10^5 events; at 4.8M events
shuffling each root's partial states by key is faster (EXPERIMENTS.md §5).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.core.aggregates import AggSpec
from repro.core.mincost import MinCostWCG
from repro.core.windows import Window, hyperperiod
from repro.engine.rollup import rollup
from repro.engine.window_agg import finalize, partial_window_agg


@dataclass
class ExecutionResult:
    """The unioned output plus handles for cleanup/inspection."""

    output: DataFrame
    partials: dict[Window, DataFrame]
    persisted: list[DataFrame] = field(default_factory=list)

    def unpersist(self) -> None:
        for df in self.persisted:
            df.unpersist()


def execute_wcg(events: DataFrame, mincost: MinCostWCG, agg: AggSpec) -> ExecutionResult:
    """Run the plan; returns the union over exposed windows."""
    keyed = events.repartition("key")
    partials: dict[Window, DataFrame] = {}
    persisted: list[DataFrame] = []
    for w in mincost.topological():
        parent = mincost.parent[w]
        if parent is None:
            df = partial_window_agg(keyed, w, agg)
        else:
            df = rollup(partials[parent], w, agg)
        if len(mincost.children(w)) > 1:
            df = df.persist()
            persisted.append(df)
        partials[w] = df

    output: DataFrame | None = None
    for w in sorted(mincost.exposed()):
        d = finalize(partials[w], w, agg)
        output = d if output is None else output.unionByName(d)
    assert output is not None, "plan exposes no windows"
    return ExecutionResult(output=output, partials=partials, persisted=persisted)


def execute_baseline(
    events: DataFrame, windows: list[Window], agg: AggSpec
) -> DataFrame:
    """Run the Figure-1(b) plan (each window from raw, unioned): the
    forest with no edges. Running a forest reads only its shape, so this
    one carries no costs."""
    forest = MinCostWCG(
        windows=list(windows),
        parent=dict.fromkeys(windows),
        cost={},
        factors=set(),
        R=hyperperiod(windows),
        eta=1,
    )
    return execute_wcg(events, forest, agg).output
