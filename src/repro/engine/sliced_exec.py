"""Executable window slicing (paned / paired, shared and unshared).

The analytic Table-1 costs describe this dataflow; here it runs on Spark,
checked against the baseline plan, as a forest of the engine
(:func:`repro.engine.executor.run_chain`) rooted at slice sets: level 0
aggregates each event into its slice per key, and level 1 rolls each
window up from the slices it fully contains (every boundary is an edge).

Slice edges are a union of residue classes ``(res, m)``
(:func:`repro.slicing.compose.edge_classes`), one of them ``(0, m)``, so
the slice of an event at tick ``t ≥ 0`` is closed form in pure SQL: it
starts at the greatest ``t − pmod(t − res, m)`` and ends at the least
``t + m − pmod(t − res, m)`` over the classes. ``shared=True`` composes
one slice set for the whole window set; ``shared=False`` slices per
window independently.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.aggregates import AggSpec
from repro.core.windows import Window
from repro.engine.executor import run_chain
from repro.engine.window_agg import decode, query, roots
from repro.slicing.compose import edge_classes


class Slices:
    """The slices that the residue classes ``(res, m)`` of their edges
    bound, as a root of a plan; the classes arrive reduced
    (:func:`repro.slicing.compose.edge_classes` drops any that another
    holds)."""

    def __init__(self, classes: list[tuple[int, int]]):
        self.classes = sorted(set(classes))

    def _bound(self, t: str, end: bool) -> str:
        """SQL for the greatest edge ``≤ t``, or with ``end`` the least ``> t``."""
        terms = []
        for r, m in self.classes:
            past = f"pmod({t} - {r}, {m})" if r else f"pmod({t}, {m})"
            terms.append(f"{t} + {m} - {past}" if end else f"{t} - {past}")
        pick = "least" if end else "greatest"
        return terms[0] if len(terms) == 1 else f"{pick}({', '.join(terms)})"

    def start(self, t: str) -> str:
        """SQL for the start of the slice that holds tick ``t``."""
        return self._bound(t, end=False)

    def end(self, t: str) -> str:
        """SQL for the end of the slice that holds tick ``t``."""
        return self._bound(t, end=True)

    def codes(self, i: int, k: int, tick: str) -> str:
        """SQL array of the code of the slice (node ``i`` of ``k``) that holds ``tick``."""
        return f"array(({self.start(tick)}) * {k} + {i})"


def slice_partials(events: DataFrame, edges: list[int], agg: AggSpec) -> DataFrame:
    """Partial aggregate per (slice, key) — the "Partial" cost column —
    over the events shuffled by key: the root level of a sliced plan,
    the sorted ``edges`` repeating every ``edges[-1]`` ticks."""
    s = Slices([(e % edges[-1], edges[-1]) for e in edges])
    return query(events, lambda t: decode(
        f"({roots(t, s.codes(0, 1, 'tick'), agg.partial, hint='REPARTITION(key)')})", 0, 1, s.end("_c"),
        agg.state_cols,
    ))


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

    ``horizon`` is accepted for existing callers and not read: the slices
    hold for every tick."""
    parent: dict = {}
    for ws in [windows] if shared else [[w] for w in windows]:
        s = Slices(edge_classes(ws, technique))
        parent.update({s: None, **dict.fromkeys(ws, s)})
    return run_chain(events, parent, set(windows), agg).output
