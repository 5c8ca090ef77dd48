"""Window coverage graph (WCG) construction — §2.3 and §4.1.

The WCG of a window set ``W`` has an edge ``(W2, W1)`` for every pair with
``W1 ≤ W2`` (``W2`` covers ``W1``; data flows *from* W2's sub-aggregates
*to* W1). The graph is a value of its vertices: constructing a ``WCG``
derives every edge in one pass of O(|W|²) pairwise tests (Theorems 1/4
make each test O(1)), and nothing changes it afterwards.

The *augmented* WCG (§4.1) additionally contains the virtual unit
tumbling window ``S⟨1,1⟩`` with an edge to every window that has no other
incoming edge, so factor-window insertion has a root to hang candidates
off. ``S`` is marked as a factor window (its output is never exposed) and
is pruned from the final plan when nothing reads from it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.aggregates import Semantics
from repro.core.windows import Window, covers, partitions

#: The virtual root window S⟨1,1⟩ of the augmented WCG.
UNIT_WINDOW = Window(1, 1)


def edge_allowed(child: Window, parent: Window, semantics: Semantics) -> bool:
    """True iff ``child`` may roll up from ``parent`` under ``semantics``.

    "covered by" for MIN/MAX, "partitioned by" for COUNT/SUM/AVG (§3.1).
    Self-edges are excluded — a window cannot be its own upstream — and
    so is every other ``parent`` whose range is not below ``child``'s,
    which neither covers nor partitions it (Theorems 1 and 4).
    """
    if child.r <= parent.r:
        return False
    if semantics is Semantics.COVERED_BY:
        return covers(child, parent)
    return partitions(child, parent)


@dataclass(frozen=True)
class WCG:
    """The window coverage graph over ``windows``.

    ``edges`` maps each window to the set of windows it covers (its
    potential *downstream* consumers); ``parents`` is the reverse map.
    Both are derived from ``windows`` and ``semantics`` on construction.
    ``factors`` records which vertices are auxiliary (factor windows or
    the virtual root) whose results must not be exposed to the user.
    """

    windows: tuple[Window, ...]
    semantics: Semantics
    factors: frozenset[Window] = frozenset()
    edges: dict[Window, set[Window]] = field(init=False, repr=False, compare=False)
    parents: dict[Window, set[Window]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.windows)) != len(self.windows):
            raise ValueError("window set contains duplicates")
        edges: dict[Window, set[Window]] = {}
        parents: dict[Window, set[Window]] = {w: set() for w in self.windows}
        for p in self.windows:
            edges[p] = {c for c in self.windows if edge_allowed(c, p, self.semantics)}
            for c in edges[p]:
                parents[c].add(p)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "parents", parents)


def build_wcg(windows: list[Window], semantics: Semantics) -> WCG:
    """Construct the (non-augmented) WCG of §2.3."""
    return WCG(tuple(windows), semantics)


def augment_wcg(g: WCG) -> WCG:
    """``g`` augmented with the virtual root ``S⟨1,1⟩``.

    §4.1: ``S`` is added (unless already a query window) and covers every
    window; the paper draws edges only to windows with no other incoming
    edge, but since ``S`` covers *all* windows under both semantics we add
    all edges — Algorithm 1's min-selection makes the extra edges harmless
    and they let every vertex be treated uniformly as Figure 9's ``W``.
    """
    if UNIT_WINDOW in g.edges:
        return g
    return WCG((*g.windows, UNIT_WINDOW), g.semantics, g.factors | {UNIT_WINDOW})
