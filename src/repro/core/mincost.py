"""Algorithm 1 — find the min-cost WCG.

Given a window set and an aggregate function, build the WCG under the
aggregate's semantics and, for every window independently, choose the
cheapest upstream: either the raw stream (``n_i·η·r_i``) or the covering
parent minimizing ``n_i·M(W_i, W')`` (Observation 1). Keeping only the
winning incoming edge per window yields a forest (Theorem 7) — the
*min-cost WCG* — which drives query rewriting (§3.3).

Factor-window vertices that nothing ends up reading from are pruned
iteratively: they are not part of the query, so an unused factor window
would add cost for no benefit (this also removes the virtual root ``S``
of the augmented WCG when it is not chosen as anyone's parent).
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


def minimize_over_graph(g: WCG, eta: int, R: int) -> MinCostWCG:
    """Run Algorithm 1 lines 2–7 over an already-built WCG ``g``, with
    costs over the hyperperiod ``R`` of the query's windows.

    Separated from :func:`find_min_cost_wcg` so Algorithm 2 can reuse it
    on the factor-window-expanded graph (its line 6).
    """
    parent: dict[Window, Window | None] = {}
    cost: dict[Window, int] = {}
    for w in g.windows:
        best_p: Window | None = None
        best_c = raw_cost(w, R, eta)  # line 3: initialize from raw stream
        for p in sorted(g.parents[w]):  # lines 4–5: try covering parents
            c = rollup_cost(w, p, R)
            if c < best_c:
                best_c, best_p = c, p
        parent[w] = best_p
        cost[w] = best_c
    out = MinCostWCG(
        windows=list(g.windows),
        parent=parent,
        cost=cost,
        factors=set(g.factors),
        R=R,
        eta=eta,
    )
    _prune_unused_factors(out)
    return out


def _prune_unused_factors(m: MinCostWCG) -> None:
    """Drop factor windows that no remaining window rolls up from.

    Iterates to a fixed point: removing a leaf factor can orphan another
    factor window upstream of it.
    """
    while True:
        used = {p for p in m.parent.values() if p is not None}
        dead = [w for w in m.windows if w in m.factors and w not in used]
        if not dead:
            return
        for w in dead:
            m.windows.remove(w)
            del m.parent[w]
            del m.cost[w]
            m.factors.discard(w)


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
