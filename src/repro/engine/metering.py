"""Metering: measure what the executed plans actually process.

The paper's evaluation compares *analytic* costs (events or
sub-aggregates read per hyperperiod). These helpers count the same
quantities on the executed Spark plans — (input row, window instance)
assignment pairs — so tests can assert that over exactly one hyperperiod
of a steady η-rate stream the measured counts equal the model's ``c_i``:

* a root window processes ``n_i · η · r_i`` event-instance pairs;
* a rolled-up window processes ``n_i · M(W_i, parent)`` sub-aggregate-
  instance pairs (per key, times the number of keys carrying state).

Only instances fully inside ``[0, horizon]`` are counted, mirroring the
model's recurrence count (Figure 5).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec
from repro.core.mincost import MinCostWCG
from repro.core.windows import Window
from repro.engine.executor import execute_wcg
from repro.engine.rollup import assignment_count
from repro.engine.window_agg import unit_intervals


def raw_assignment_count(events: DataFrame, w: Window, horizon: int) -> int:
    """(event, instance) pairs a direct window aggregate processes,
    counted with the assignment operator the root window runs: each
    event is the unit interval ``[tick, tick+1)``."""
    return assignment_count(unit_intervals(events), w, horizon)


def plan_assignment_counts(
    events: DataFrame, mincost: MinCostWCG, agg: AggSpec, horizon: int
) -> dict[Window, int]:
    """Measured per-window processing counts of the executed plan.

    Root windows count event-instance pairs; children count
    (parent-sub-aggregate, instance) pairs from the parent's partial
    output in the plan :func:`execute_wcg` runs (which is per key —
    divide by the key count to compare with the paper's keyless cost
    model, or generate a 1-key stream as the metering tests do).
    """
    res = execute_wcg(events, mincost, agg)
    try:
        return {
            w: raw_assignment_count(events, w, horizon)
            if p is None
            else assignment_count(res.partials[p].where(F.col("win_end") <= horizon), w, horizon)
            for w, p in mincost.parent.items()
        }
    finally:
        res.unpersist()
