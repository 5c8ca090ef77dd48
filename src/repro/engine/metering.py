"""Metering: measure what the executed plans actually process.

The paper's evaluation compares *analytic* costs. These helpers count the
same quantities on the executed Spark plans, (input row, window instance)
assignment pairs, so tests can assert that over one hyperperiod of a
steady η-rate stream they equal the model's ``c_i``: ``n_i · η · r_i``
event-instance pairs for a root window, ``n_i · M(W_i, parent)``
sub-aggregate-instance pairs per key for a rolled-up one. Only instances
fully inside ``[0, horizon]`` count, as in the recurrence count (Figure 5).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec
from repro.core.mincost import MinCostWCG
from repro.core.windows import Window
from repro.engine.executor import execute_wcg
from repro.engine.rollup import assignment_count


def raw_assignment_count(events: DataFrame, w: Window, horizon: int) -> int:
    """(event, instance) pairs a direct window aggregate processes,
    counted with the assignment operator the root window runs: each
    event is the unit interval ``[tick, tick+1)``."""
    return assignment_count(events, w, horizon, "tick", "tick + 1", "tick >= 0")


def plan_assignment_counts(
    events: DataFrame, mincost: MinCostWCG, agg: AggSpec, horizon: int
) -> dict[Window, int]:
    """Measured per-window processing counts of the executed plan.

    Root windows count event-instance pairs; children count
    (parent-sub-aggregate, instance) pairs from the parent's partial
    states at its level of the chain :func:`execute_wcg` runs. These are
    per key: divide by the key count to compare with the keyless cost
    model, or generate a 1-key stream as the metering tests do.
    """
    partials = execute_wcg(events, mincost, agg).partials
    return {
        w: raw_assignment_count(events, w, horizon)
        if p is None
        else assignment_count(partials[p].where(F.col("win_end") <= horizon), w, horizon)
        for w, p in mincost.parent.items()
    }
