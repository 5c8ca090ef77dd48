"""Algorithm 1 — find the min-cost WCG.

Given a window set and an aggregate function, build the WCG under the
aggregate's semantics and, for every window independently, choose the
cheapest upstream: either the raw stream (``n_i·η·r_i``) or the covering
parent minimizing ``n_i·M(W_i, W')`` (Observation 1). Keeping only the
winning incoming edge per window yields a forest (Theorem 7) — the
*min-cost WCG* — which drives query rewriting (§3.3).

The result keeps only the windows that some query window reaches through
its chosen parents: an unused factor window would add cost for no
benefit, so it drops out (as does the augmented WCG's virtual root ``S``
when no query window descends from it).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregates import AggSpec
from repro.core.cost import raw_cost, rollup_cost, window_cost
from repro.core.wcg import WCG, build_wcg
from repro.core.windows import Window, hyperperiod


@dataclass
class MinCostWCG:
    """Result of cost minimization: a forest over (query ∪ factor) windows.

    ``parent[w]`` is ``None`` when ``w`` is computed from the raw stream,
    else the window whose sub-aggregates ``w`` rolls up. ``cost[w]`` is
    ``c_i`` over hyperperiod ``R`` at rate ``eta``; ``total`` their sum.
    ``factors`` are auxiliary vertices whose output is not exposed.
    The forest is also the §3.3 rewritten plan: the batch and streaming
    engines run it as it stands.
    """

    windows: list[Window]
    parent: dict[Window, Window | None]
    cost: dict[Window, int]
    factors: set[Window]
    R: int
    eta: int

    @property
    def total(self) -> int:
        return sum(self.cost.values())

    def children(self, w: Window) -> list[Window]:
        return sorted(c for c, p in self.parent.items() if p == w)

    def roots(self) -> list[Window]:
        return sorted(w for w, p in self.parent.items() if p is None)

    def exposed(self) -> list[Window]:
        return [w for w in self.windows if w not in self.factors]

    def topological(self) -> list[Window]:
        """Windows ordered parents-before-children (forest → trivial)."""
        out: list[Window] = []
        seen: set[Window] = set()

        def visit(w: Window) -> None:
            if w in seen:
                return
            p = self.parent[w]
            if p is not None:
                visit(p)
            seen.add(w)
            out.append(w)

        for w in sorted(self.windows):
            visit(w)
        return out

    def describe(self) -> str:
        """The §3.3 rewritten plan as text (the analogue of Figure 2): one
        line per window, parents first, naming what it reads."""
        return "\n".join(
            f"{w} <- {self.parent[w] or 'events'}{' [factor]' if w in self.factors else ''}"
            for w in self.topological()
        )


def minimize_over_graph(g: WCG, eta: int, R: int, among: set[Window] | None = None) -> MinCostWCG:
    """Run Algorithm 1 lines 2–7 over the windows ``among`` of an
    already-built WCG ``g`` (all of them by default), with costs over the
    hyperperiod ``R`` of the query's windows.

    Algorithm 2 runs it over its one candidate graph (line 6), and its
    benefit pass over subsets of that graph. The plan keeps the windows
    that some query window reaches through its parent chain.
    """
    among = set(g.windows) if among is None else among
    parent: dict[Window, Window | None] = {}
    cost: dict[Window, int] = {}
    for w in (w for w in g.windows if w in among):
        best_p: Window | None = None
        best_c = raw_cost(w, R, eta)  # line 3: initialize from raw stream
        for p in sorted(g.parents[w] & among):  # lines 4–5: try covering parents
            c = rollup_cost(w, p, R)
            if c < best_c:
                best_c, best_p = c, p
        parent[w] = best_p
        cost[w] = best_c
    reached: set[Window] = set()
    for w in parent.keys() - g.factors:
        while w is not None and w not in reached:
            reached.add(w)
            w = parent[w]
    windows = [w for w in parent if w in reached]
    return MinCostWCG(
        windows=windows,
        parent={w: parent[w] for w in windows},
        cost={w: cost[w] for w in windows},
        factors=set(g.factors & reached),
        R=R,
        eta=eta,
    )


def find_min_cost_wcg(windows: list[Window], agg: AggSpec, eta: int = 1) -> MinCostWCG:
    """Algorithm 1: min-cost WCG for a query window set (no factor
    windows; the augmented root is *not* added here — Example 6/7 of the
    paper cost WCG-basic without it)."""
    g = build_wcg(windows, agg.semantics)
    return minimize_over_graph(g, eta, hyperperiod(windows))


def brute_force_min_cost(
    windows: list[Window], agg: AggSpec, eta: int = 1
) -> tuple[int, dict[Window, Window | None]]:
    """Exhaustive search over all parent assignments (test oracle only).

    Enumerates every combination of (raw | covering parent) per window.
    Exponential; callers keep ``|windows|`` small. Because each window's
    cost depends only on its own parent choice, the independent per-window
    minimum found by Algorithm 1 is globally optimal — this function
    exists to *verify* that claim in tests.
    """
    from itertools import product

    g = build_wcg(windows, agg.semantics)
    R = hyperperiod(windows)
    choices = [[None, *sorted(g.parents[w])] for w in windows]
    best = None
    best_assign: dict[Window, Window | None] = {}
    for combo in product(*choices):
        assign = dict(zip(windows, combo))
        c = sum(window_cost(w, p, R, eta) for w, p in assign.items())
        if best is None or c < best:
            best, best_assign = c, assign
    assert best is not None
    return best, best_assign
