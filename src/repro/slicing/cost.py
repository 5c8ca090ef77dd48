"""Table 1 — analytic costs of the window-slicing techniques.

Over the period ``S = lcm(slides)`` with ``T = η·S`` events:

| Technique       | Partial | Final                                 |
|-----------------|---------|---------------------------------------|
| Unshared paned  | ``n·T`` | ``Σ (S/s_i)·(r_i/g_i)``               |
| Unshared paired | ``n·T`` | ``Σ (S/s_i)·⌈2·r_i/s_i⌉``             |
| Shared paned    | ``T``   | ``Σ E_paned·(r_i/s_i)``               |
| Shared paired   | ``T``   | ``Σ E_paired·(r_i/s_i)``              |

``E`` is the composed sliced window's edge count per period ``S``
(:func:`repro.slicing.compose.composed_edge_count`). The paper's sum
bound "n−1" in the unshared-paired row and the unsubscripted ``r`` in
the unshared-paned row are read as typos for ``n`` and ``r_i``
(DESIGN.md §5). All results are exact integers.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.windows import Window
from repro.slicing import paired, paned
from repro.slicing.compose import composed_edge_count, slide_period


@dataclass(frozen=True)
class SlicingCost:
    """Partial + final operation counts over one period ``S``."""

    partial: int
    final: int
    S: int

    @property
    def total(self) -> int:
        return self.partial + self.final


def unshared_paned(windows: list[Window], eta: int) -> SlicingCost:
    S = slide_period(windows)
    partial = len(windows) * eta * S
    final = sum((S // w.s) * paned.panes_per_window(w) for w in windows)
    return SlicingCost(partial, final, S)


def unshared_paired(windows: list[Window], eta: int) -> SlicingCost:
    S = slide_period(windows)
    partial = len(windows) * eta * S
    final = sum(
        (S // w.s) * paired.table1_slices_per_window(w) for w in windows
    )
    return SlicingCost(partial, final, S)


def shared_paned(windows: list[Window], eta: int) -> SlicingCost:
    S = slide_period(windows)
    E = composed_edge_count(windows, "paned")
    final = sum(E * w.k for w in windows)
    return SlicingCost(eta * S, final, S)


def shared_paired(windows: list[Window], eta: int) -> SlicingCost:
    S = slide_period(windows)
    E = composed_edge_count(windows, "paired")
    final = sum(E * w.k for w in windows)
    return SlicingCost(eta * S, final, S)


TECHNIQUES = {
    "unshared_paned": unshared_paned,
    "unshared_paired": unshared_paired,
    "shared_paned": shared_paned,
    "shared_paired": shared_paired,
}


def table1(windows: list[Window], eta: int) -> dict[str, SlicingCost]:
    """All four Table-1 rows for one window set."""
    return {name: fn(windows, eta) for name, fn in TECHNIQUES.items()}
