"""The sub-aggregate rollup operator — the heart of the rewritten plan.

A downstream window ``W1⟨r1, s1⟩`` is computed from the partial states
of an upstream window ``W2`` (one row per (instance ``[u, v)``, key)):
the engine's assignment operator (:mod:`repro.engine.window_agg`) sends
every upstream instance to each downstream instance that fully contains
it (Definition 2's covering set), and the partial states are merged per
(downstream instance, key). Upstream instances that no downstream
instance contains (possible when the upstream window is hopping) drop out.

Under "covered by" semantics downstream instances receive *overlapping*
upstream instances — sound for MIN/MAX (Theorem 6). Under
"partitioned by" the upstream window is tumbling and the assignment is a
disjoint partition (Theorem 4), sound for all distributive/algebraic
aggregates (Theorem 5).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.aggregates import AggSpec
from repro.core.windows import Window
from repro.engine.window_agg import assign, merge_instances


def rollup(upstream: DataFrame, child: Window, agg: AggSpec) -> DataFrame:
    """Partial states of ``child`` computed from ``upstream`` partials."""
    return merge_instances(assign(upstream, child, "key", *agg.state_cols), child, agg.merge)


def assignment_count(upstream: DataFrame, child: Window, horizon: int) -> int:
    """Metering: number of (upstream instance, downstream instance, key)
    pairs the rollup processes, restricted to downstream instances fully
    inside ``[0, horizon]`` — the executed analogue of the cost model's
    ``n_1 · M(W_1, W_2)`` (per key)."""
    return assign(upstream, child).where(f"_start + {child.r} <= {horizon}").count()
