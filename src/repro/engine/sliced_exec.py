"""Executable window slicing (paned / paired, shared and unshared).

The analytic Table-1 costs describe this dataflow; here it runs on Spark,
checked against the baseline plan, as a forest of the engine
(:func:`repro.engine.executor.run_chain`) rooted at slice sets: level 0
aggregates each event into its slice per key, and level 1 rolls each
window up from the slices it fully contains (every boundary is an edge).

Slice edges repeat with a period ``P`` dividing ``S = lcm(slides)``, and
every multiple of ``P`` is an edge, so ``tick − pmod(tick, P)`` plus a
lookup of ``pmod(tick, P)`` in two literal arrays of length ``P`` bounds
an event's slice in pure SQL. The edges are listed over the stream's span
plus the largest range, or over ``2·S`` when shorter, so ``P`` never
outgrows the stream. ``shared=True`` composes one slice set for the whole
window set; ``shared=False`` slices per window independently.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec
from repro.core.windows import Window
from repro.engine.executor import run_chain
from repro.engine.window_agg import decode, query, roots
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


class Slices:
    """The slices that the sorted ``edges`` bound, as a root of a plan.
    Past the last edge they repeat with the list's :func:`edge_period`
    ``P``; a list that shows no period ends there."""

    def __init__(self, edges: list[int]):
        p = edge_period(edges)
        ends = [e for e in edges if e <= p]
        slot = [bisect_right(ends, i) for i in range(p)]  # slice of each offset
        self.p, self.ends_at_p = p, p == edges[-1]
        self.starts, self.stops = (_int_array(b[k] for k in slot) for b in ([0] + ends, ends))

    def _bound(self, t: str, bounds: str) -> str:
        return f"{t} - pmod({t}, {self.p}) + element_at({bounds}, int(pmod({t}, {self.p})) + 1)"

    def end(self, t: str) -> str:
        """SQL for the end of the slice that holds tick ``t``."""
        return self._bound(t, self.stops)

    def codes(self, i: int, k: int, tick: str) -> str:
        """SQL array of the code of the slice (node ``i`` of ``k``) that
        holds ``tick``, if any."""
        code = f"array(({self._bound(tick, self.starts)}) * {k} + {i})"
        return f"if({tick} < {self.p}, {code}, array())" if self.ends_at_p else code


def assign_slices(events: DataFrame, edges: list[int]) -> DataFrame:
    """Events at ``tick ≥ 0`` with their slice's ``[slice_start, slice_end)``."""
    s = Slices(edges)
    assign, end = s.codes(0, 1, "tick"), s.end("slice_start")
    return query(events, lambda t: (
        f"SELECT *, {end} AS slice_end FROM "
        f"(SELECT *, explode({assign}) AS slice_start FROM {t} WHERE tick >= 0)"
    ))


def _int_array(values: Iterable[int]) -> str:
    """An integer array literal as one SQL string that Catalyst folds once;
    an ``array(…)`` call of ~10⁵ arguments takes seconds to analyse."""
    return f"cast(split('{','.join(map(str, values))}', ',') AS array<int>)"


def slice_partials(events: DataFrame, edges: list[int], agg: AggSpec) -> DataFrame:
    """Partial aggregate per (slice, key) — the "Partial" cost column —
    over the events shuffled by key: the root level of a sliced plan."""
    s = Slices(edges)
    assign = s.codes(0, 1, "tick")
    return query(events, lambda t: decode(
        f"({roots(t, assign, agg, shuffle=True)})", 0, 1, s.end("_c"), agg.state_cols
    ))


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
    edges drop out (see :class:`Slices`)."""
    if horizon is None:
        horizon = max((events.agg(F.max("tick")).first()[0] or 0) + 1, 0)
    parent: dict = {}
    for ws in [windows] if shared else [[w] for w in windows]:
        s = Slices(_edges(ws, technique, horizon))
        parent.update({s: None, **dict.fromkeys(ws, s)})
    return run_chain(events, parent, set(windows), agg).output
