"""Factor windows — §4 of the paper.

A *factor window* is an auxiliary window not present in the query that is
inserted between a window ``W`` and its downstream windows ``W_1…W_K``
(Figure 9) so that the children roll up from the factor's sub-aggregates
instead of ``W``'s, lowering total cost. Its own result is never exposed.

This module implements:

* ``pattern_cost_delta`` — Equation 2 (``c − c'``) computed exactly on the
  Figure-9 pattern; Equation 3's benefit test is ``delta ≤ 0``.
* ``generate_candidates`` — §4.2.1 generic candidate enumeration
  (eligible slides dividing ``gcd`` of child slides, eligible ranges up
  to ``min`` child range, coverage constraints of Figure 9).
* ``algorithm3`` — the closed-form benefit test under "partitioned by"
  semantics (both ``W_f`` and ``W`` tumbling), Theorem 8.
* ``algorithm4`` — best factor window under "partitioned by": candidate
  ranges are common factors of child ranges that are multiples of
  ``r_W``; dependent candidates pruned; winner picked per Theorem 9.
* ``theorem9_prefers`` — the ratio comparator of Theorem 9.
* ``algorithm2`` / ``optimize`` — rerun Algorithm 1 over the WCG of the
  augmented windows plus the best factor window per vertex (factors no
  query window descends from drop out), drop every factor window that
  does not pay for itself, and return the better of the factor-free and
  factor-enabled plans (§4.3: Algorithm 2 is a Steiner-tree heuristic,
  not guaranteed optimal, so the paper keeps whichever of Alg 1/Alg 2
  wins).
"""
from __future__ import annotations

from fractions import Fraction

from repro.core.aggregates import AggSpec, Semantics
from repro.core.cost import recurrence_count, rollup_cost
from repro.core.mincost import MinCostWCG, find_min_cost_wcg, minimize_over_graph
from repro.core.wcg import WCG, augment_wcg, build_wcg, edge_allowed
from repro.core.windows import Window, covers, gcd_many, hyperperiod


def transitive_reduction_children(g: WCG, w: Window) -> list[Window]:
    """Direct successors of ``w`` in the coverage partial order.

    Figure 9's ``W_1…W_K`` are ``W``'s *immediate* downstream windows: a
    child covered by some other child of ``w`` is reached through that
    intermediate window, not directly (this is also why the paper's
    augmentation wires ``S`` only to windows with no other parent).
    """
    cs = g.edges[w]
    return sorted(
        c for c in cs if not any(edge_allowed(c, o, g.semantics) for o in cs)
    )


def pattern_cost_delta(
    w: Window, children: list[Window], wf: Window, R: int
) -> int:
    """Equation 2: ``c − c'`` for inserting ``wf`` between ``w`` and its
    children. Negative ⇒ the factor window lowers the pattern's cost;
    Equation 3's benefit condition is ``delta ≤ 0``.

    Computed directly from the cost model (``Σ n_j·M(W_j,·)`` plus the
    factor's own ``n_f·M(W_f, W)``), which is what Equation 2 expands.
    """
    with_f = sum(rollup_cost(c, wf, R) for c in children) + rollup_cost(wf, w, R)
    without = sum(rollup_cost(c, w, R) for c in children)
    return with_f - without


def generate_candidates(
    w: Window, children: list[Window], semantics: Semantics
) -> list[Window]:
    """§4.2.1 candidate enumeration for the Figure-9 pattern at ``w``.

    Slides: divisors of ``s_d = gcd(child slides)`` that are multiples of
    ``s_W``. Ranges: multiples of ``s_f`` up to ``min(child ranges)``.
    Each (s_f, r_f) pair is kept only if ``edge_allowed`` lets ``wf`` roll
    up from ``w`` and every child from ``wf`` — Figure 9's constraints,
    which also rule out ``wf = w`` and ``wf`` among the children. Under
    "partitioned by" semantics this keeps only tumbling candidates
    (Theorem 4), which Algorithm 4 exploits.
    """
    if not children:
        return []
    s_d = gcd_many([c.s for c in children])
    r_min = min(c.r for c in children)
    out = []
    for s_f in range(1, s_d + 1):
        if s_d % s_f or s_f % w.s:
            continue
        for r_f in range(s_f, r_min + 1, s_f):
            wf = Window(r_f, s_f)
            if edge_allowed(wf, w, semantics) and all(
                edge_allowed(c, wf, semantics) for c in children
            ):
                out.append(wf)
    return out


def find_best_factor_generic(
    w: Window, children: list[Window], semantics: Semantics, R: int
) -> Window | None:
    """FindBestFactorWindow of Algorithm 2 (lines 9–12): keep beneficial
    candidates (Eq. 3) and return the one with maximum estimated cost
    reduction (Eq. 2); ``None`` when no candidate strictly improves."""
    best: Window | None = None
    best_delta = 0  # require strict improvement to insert a vertex
    for wf in generate_candidates(w, children, semantics):
        delta = pattern_cost_delta(w, children, wf, R)
        if delta < best_delta or (delta == best_delta and best and wf.r > best.r):
            best, best_delta = wf, delta
    return best


def algorithm3(wf: Window, w: Window, children: list[Window], R: int) -> bool:
    """Algorithm 3: does tumbling factor ``wf`` help under "partitioned
    by"? (Theorem 8 proves this matches Equation 3.)

    ``K ≥ 2`` → yes. ``K = 1``: no if the only child is tumbling
    (``k₁ = 1``) or fires once (``m₁ = 1``); yes if ``k₁ ≥ 3 ∧ m₁ ≥ 3``;
    otherwise the exact ratio test ``r_f/r_W ≥ λ/(λ−1)`` with
    ``λ/(λ−1) = 1 + m₁/((m₁−1)(k₁−1))``. Theorem 8's closed form assumes
    ``r₁ = k₁·s₁``; a child with ``r₁ mod s₁ ≠ 0`` takes Equation 3 itself.
    """
    if not (wf.is_tumbling and w.is_tumbling):
        raise ValueError("Algorithm 3 requires tumbling W_f and W")
    K = len(children)
    if K == 0:
        return False
    if K >= 2:
        return True
    (c1,) = children
    if c1.r % c1.s:
        return pattern_cost_delta(w, children, wf, R) <= 0
    k1 = c1.k
    m1 = R // c1.r
    if k1 == 1 or m1 == 1:
        return False
    if k1 >= 3 and m1 >= 3:
        return True
    threshold = 1 + Fraction(m1, (m1 - 1) * (k1 - 1))
    return Fraction(wf.r, w.r) >= threshold


def theorem9_prefers(
    wf: Window, wf2: Window, w: Window, children: list[Window], R: int
) -> bool:
    """Theorem 9: True iff ``c_f ≤ c'_f`` — tumbling candidate ``wf`` is
    at least as good as independent tumbling candidate ``wf2`` — via the
    ratio test ``r_f/r'_f ≥ (λ − r_f/r_W)/(λ − r'_f/r_W)`` where
    ``λ = Σ_j n_j/m_j``.

    Both sides are exact fractions. The test's derivation divides by
    ``λ − r'_f/r_W``; when that quantity is ≤ 0 the inequality flips, so
    we compare the underlying (pre-division) linear form instead, which
    is sign-safe and equivalent.
    """
    lam = sum(
        Fraction(recurrence_count(c, R), R // c.r) for c in children
    )
    # (1 − r_f/r'_f)·λ + (r'_f/r_W)·(r_f/r'_f − n'_f/n_f) ≤ 0, with
    # (r'_f/r_W)·(n'_f/n_f) = r_f/r_W for tumbling candidates (see the
    # Theorem 9 proof), i.e. (1 − ρ)·λ + ρ·r'_f/r_W − r_f/r_W ≤ 0.
    rho = Fraction(wf.r, wf2.r)
    lhs = (1 - rho) * lam + rho * Fraction(wf2.r, w.r) - Fraction(wf.r, w.r)
    return lhs <= 0


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def algorithm4(
    w: Window, children: list[Window], R: int, taken: set[Window] | None = None
) -> Window | None:
    """Algorithm 4: best factor window under "partitioned by" semantics.

    Candidate ranges are the common factors of the child ranges and
    slides that are multiples of ``r_W`` (all candidates tumbling, and a
    tumbling window partitions a child only if its range divides the
    child's range and slide, Theorem 4); candidates
    rejected by Algorithm 3 or *dependent* on (covered by) another
    candidate are pruned; the winner minimizes the Figure-9 pattern cost
    (exactly what Theorem 9's comparator decides — tests assert the
    comparator agrees with the direct costs).

    ``taken`` are windows already in the graph; a "candidate" equal to an
    existing window is meaningless as a new vertex.
    """
    if not children or not w.is_tumbling:
        return None
    taken = taken or set()
    d = gcd_many([x for c in children for x in (c.r, c.s)])
    if d == w.r:
        return None  # line 3: no room between W and its children
    cands = []
    for r_f in _divisors(d):
        if r_f % w.r or r_f == w.r:
            continue
        wf = Window(r_f, r_f)
        if wf in taken or wf in children:
            continue
        if algorithm3(wf, w, children, R):
            cands.append(wf)
    # Lines 11–13: drop W_f when another candidate is covered by it.
    cands = [
        wf
        for wf in cands
        if not any(o != wf and covers(o, wf) for o in cands)
    ]
    if not cands:
        return None
    best = min(
        cands,
        key=lambda wf: (pattern_cost_delta(w, children, wf, R), -wf.r),
    )
    if pattern_cost_delta(w, children, best, R) >= 0:
        return None
    return best


def algorithm2(windows: list[Window], agg: AggSpec, eta: int = 1) -> MinCostWCG:
    """Algorithm 2: min-cost WCG with factor windows allowed.

    Builds the augmented WCG (virtual root ``S⟨1,1⟩``), finds the best
    factor window for every vertex's Figure-9 pattern (Algorithm 4 under
    "partitioned by", the generic Eq.-2/3 search under "covered by"),
    and reruns Algorithm 1 over the WCG of the augmented windows plus all
    of them. Factor vertices that no query window descends from —
    including ``S`` — drop out of the plan.

    Candidates are chosen against the *original* augmented graph (one
    pattern per vertex, as the paper's `foreach` does), and a WCG is a
    value of its window set, so the result is independent of iteration
    order. Each was chosen for its Figure-9 pattern, but Algorithm 1 may
    then leave it fewer children than it was chosen for: ``S`` with one
    child costs ``η·R``, as much as that child reading the raw stream,
    and only adds a level. So a benefit pass closes the search: it
    removes the factor window (``S`` included) whose removal lowers the
    total most when Algorithm 1 reruns over the plan's windows without it,
    until no removal lowers it. Each trial restricts the one candidate
    graph to those windows; none builds a WCG of its own.
    """
    R = hyperperiod(windows)
    g = augment_wcg(build_wcg(windows, agg.semantics))
    taken = set(g.windows)
    chosen: list[Window] = []
    for w in sorted(g.windows):
        children = transitive_reduction_children(g, w)
        if not children:
            continue  # Figure 8(b): no downstream windows to improve
        if agg.semantics is Semantics.PARTITIONED_BY and w.is_tumbling:
            wf = algorithm4(w, children, R, taken=taken | set(chosen))
        else:
            wf = find_best_factor_generic(w, children, agg.semantics, R)
        if wf is not None and wf not in taken and wf not in chosen:
            chosen.append(wf)
    g = WCG((*g.windows, *chosen), g.semantics, g.factors | set(chosen))
    m = minimize_over_graph(g, eta, R)
    while m.factors:
        # Over the plan's own windows: with the unused candidates back,
        # Algorithm 1 may pick one that costs more than it saves.
        trials = (minimize_over_graph(g, eta, R, set(m.windows) - {f}) for f in sorted(m.factors))
        m_less = min(trials, key=lambda t: t.total)
        if m_less.total >= m.total:
            break
        m = m_less
    return m


def optimize(windows: list[Window], agg: AggSpec, eta: int = 1) -> MinCostWCG:
    """§4.3: run Algorithms 1 and 2 and return whichever plan is cheaper
    (Algorithm 2 is a heuristic and can lose to Algorithm 1)."""
    base = find_min_cost_wcg(windows, agg, eta)
    with_f = algorithm2(windows, agg, eta)
    return with_f if with_f.total < base.total else base
