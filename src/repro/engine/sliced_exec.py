"""Executable window slicing (paned / paired, shared and unshared).

The analytic Table-1 costs describe this dataflow; here it actually runs
on Spark so the substrate itself is verified against the baseline plan.
Shared slicing runs as a forest of the engine's own operators:

1. the events at ``tick ≥ 0`` are shuffled by key once;
2. every event is assigned to its slice ``[slice_start, slice_end)`` in
   pure SQL. Slices are not equi-width, but their edges repeat with a
   period ``P`` dividing ``S = lcm(slides)``, and every multiple of ``P``
   is an edge; so ``tick − pmod(tick, P)`` plus a lookup of
   ``pmod(tick, P)`` in two literal arrays of length ``P`` bounds the slice.
   The edges are listed over the stream's span plus the largest range, or
   over ``2·S`` when that is shorter, so ``P`` never outgrows the stream;
3. partial aggregate per (slice, key) — the shared node (MultiCast),
   persisted;
4. each window rolls up the slice partials it fully contains with the
   rollup operator, since every firing boundary is itself a slice edge.
   The slices are already partitioned by key, so no rollup shuffles.

``shared=True`` composes one slice set for the whole window set (slices
computed once); ``shared=False`` slices per window independently.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec
from repro.core.windows import Window
from repro.engine.rollup import rollup
from repro.engine.window_agg import finalize
from repro.slicing.compose import composed_edges, slide_period


def edge_period(edges: list[int]) -> int:
    """The least edge ``P`` at which the sorted edge list repeats, where
    the list spans at least two periods (``2·P ≤`` its last edge) so the
    repetition is shown, not assumed; the last edge otherwise.

    Edges repeat at ``P`` exactly when the gaps between them (from 0)
    repeat after the gap that ends at ``P``: the gap sequence's least
    period, found in linear time by the KMP failure function."""
    gaps = [b - a for a, b in zip([0] + edges, edges)]
    border = [0] * len(gaps)  # longest proper border of each gap prefix
    k = 0
    for i in range(1, len(gaps)):
        while k and gaps[i] != gaps[k]:
            k = border[k - 1]
        k += gaps[i] == gaps[k]
        border[i] = k
    p = edges[len(gaps) - border[-1] - 1]
    return p if 2 * p <= edges[-1] else edges[-1]


def assign_slices(events: DataFrame, edges: list[int]) -> DataFrame:
    """Events at ``tick ≥ 0`` with their slice's ``[slice_start, slice_end)``
    among the slices the sorted ``edges`` bound. Past the last edge the
    slices repeat with the list's :func:`edge_period`; a list that shows
    no period ends there, and later events belong to no slice."""
    p = edge_period(edges)
    ends = [e for e in edges if e <= p]
    slot = [bisect_right(ends, i) for i in range(p)]  # slice of each offset
    firsts = [0] + ends
    starts, stops = _int_array(firsts[k] for k in slot), _int_array(ends[k] for k in slot)
    base, i = f"tick - pmod(tick, {p})", f"int(pmod(tick, {p})) + 1"
    past = "" if p < edges[-1] else f" AND tick < {p}"
    return events.where(f"tick >= 0{past}").selectExpr(
        "*",
        f"{base} + element_at({starts}, {i}) AS slice_start",
        f"{base} + element_at({stops}, {i}) AS slice_end",
    )


def _int_array(values: Iterable[int]) -> str:
    """An integer array literal as one SQL string that Catalyst folds once;
    an ``array(…)`` call with one argument per entry takes seconds to
    analyse at ~10⁵ entries."""
    return f"cast(split('{','.join(map(str, values))}', ',') AS array<int>)"


def slice_partials(events: DataFrame, edges: list[int], agg: AggSpec) -> DataFrame:
    """Partial aggregate per (slice, key) — the "Partial" cost column —
    over the events shuffled by key once."""
    return (
        assign_slices(events.repartition("key"), edges)
        .groupBy(F.expr("slice_start AS win_start"), F.expr("slice_end AS win_end"), "key")
        .agg(*map(F.expr, agg.partial))
    )


def _edges(windows: list[Window], technique: str, horizon: int) -> list[int]:
    """The composed slice edges over the stream's span, or over two
    periods ``S`` when that is shorter: enough for :func:`edge_period` to
    find their true period, and never more edges than the span needs."""
    span = horizon + max(w.r for w in windows)
    return composed_edges(windows, technique, min(2 * slide_period(windows), span))


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
    baseline plan (window_id, win_start, win_end, key, value).

    ``horizon`` is the stream's span, its last tick + 1 when ``None``.
    Events past it still fall in their slices when ``2·S ≤ horizon + max r``,
    as the listed slices then repeat; otherwise events past the listed
    edges drop out (see :func:`assign_slices`)."""
    if horizon is None:
        horizon = max((events.agg(F.max("tick")).first()[0] or 0) + 1, 0)
    if shared:
        partials = slice_partials(events, _edges(windows, technique, horizon), agg).persist()
        inputs = {w: partials for w in windows}
    else:
        inputs = {
            w: slice_partials(events, _edges([w], technique, horizon), agg) for w in windows
        }
    out: DataFrame | None = None
    for w in sorted(windows):
        d = finalize(rollup(inputs[w], w, agg), w, agg)
        out = d if out is None else out.unionByName(d)
    assert out is not None
    return out
