"""Executable window slicing (paned / paired, shared and unshared).

The analytic Table-1 costs describe this dataflow; here it actually runs
on Spark so the substrate itself is verified against the baseline plan:

1. slice boundaries = the (composed) slice edges over the data horizon;
2. every event is assigned to its slice (binary search over the
   irregular boundary array inside ``mapInPandas`` — slices are not
   equi-width, so no closed-form bucketing exists);
3. partial aggregate per (slice, key);
4. each window firing ``[a, a + r)`` merges the partial aggregates of
   the slices it fully contains — the same containment
   assignment the rollup operator uses, since every firing boundary is
   itself a slice edge.

``shared=True`` composes one slice set for the whole window set (slices
computed once); ``shared=False`` slices per window independently.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.aggregates import AggSpec
from repro.core.windows import Window
from repro.engine.rollup import rollup
from repro.engine.window_agg import finalize
from repro.slicing.compose import composed_edges


def _slice_bounds(edges: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Left-closed slice intervals ``[start, end)`` from edge positions."""
    ends = np.asarray(edges, dtype=np.int64)
    starts = np.concatenate(([0], ends[:-1]))
    return starts, ends


def assign_slices(events: DataFrame, edges: list[int]) -> DataFrame:
    """Events annotated with their slice's ``[slice_start, slice_end)``.

    Boundaries are irregular (paired slices have two lengths; composed
    slices arbitrary), hence the ``searchsorted`` in Arrow batches.
    """
    starts, ends = _slice_bounds(edges)
    schema = StructType(
        events.schema.fields
        + [
            StructField("slice_start", LongType()),
            StructField("slice_end", LongType()),
        ]
    )

    def add(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            idx = np.searchsorted(ends, pdf["tick"].to_numpy(), side="right")
            idx = np.clip(idx, 0, len(ends) - 1)
            pdf = pdf.copy()
            pdf["slice_start"] = starts[idx]
            pdf["slice_end"] = ends[idx]
            yield pdf

    return events.mapInPandas(add, schema=schema)


def slice_partials(events: DataFrame, edges: list[int], agg: AggSpec) -> DataFrame:
    """Partial aggregate per (slice, key) — the "Partial" cost column."""
    return (
        assign_slices(events, edges)
        .groupBy(
            F.col("slice_start").alias("win_start"),
            F.col("slice_end").alias("win_end"),
            F.col("key"),
        )
        .agg(*agg.partial_exprs("v"))
    )


def sliced_window_agg(
    events: DataFrame,
    windows: list[Window],
    agg: AggSpec,
    *,
    technique: str = "paired",
    shared: bool = True,
    horizon: int | None = None,
) -> DataFrame:
    """Full sliced evaluation of a window set; same output schema as the
    baseline plan (window_id, win_start, win_end, key, value)."""
    if horizon is None:
        horizon = events.agg(F.max("tick")).collect()[0][0] + 1
    out: DataFrame | None = None
    if shared:
        edges = composed_edges(windows, technique, horizon + max(w.r for w in windows))
        partials = slice_partials(events, edges, agg).persist()
        for w in sorted(windows):
            d = finalize(rollup(partials, w, agg), w, agg)
            out = d if out is None else out.unionByName(d)
    else:
        for w in sorted(windows):
            edges = composed_edges([w], technique, horizon + w.r)
            partials = slice_partials(events, edges, agg)
            d = finalize(rollup(partials, w, agg), w, agg)
            out = d if out is None else out.unionByName(d)
    assert out is not None
    return out
