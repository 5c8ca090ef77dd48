"""Synthetic window-set generators — §5.2 (Algorithms 5 and 6).

* ``random_window`` — Algorithm 5: slide uniform in ``[s_min, s_max]``,
  range a uniform multiple ``k·s`` with ``k ∈ [1, k_max]``.
* ``random_gen`` — **RandomGen**: n independent Algorithm-5 windows.
* ``chain_gen`` — **ChainGen**: ``W_{i+1}`` covered by ``W_i``.
* ``star_gen`` — **StarGen**: each ``W_i`` (i ≥ 2) covered by ``W_1``.
* ``random_graph_gen`` — **RandomGraphGen** (Algorithm 6): a levelled DAG
  built bottom-up, each level an antichain, upper-level windows covering
  a random subset of the level below.
* ``tumbling_variant`` / the ``tumbling=True`` flags — the paper's
  "only tumbling windows" variants used for partitioned-by experiments.

All generators are deterministic in ``seed`` (``random.Random``), return
duplicate-free window sets, and use exact integers.

Deviation from the paper (documented in DESIGN.md §5): inside Algorithm 6
slides are drawn as random *multiples* of ``s_min = lcm(subset slides)``;
a uniform draw in ``[s_min, s_max]`` (the literal Algorithm 5 call) almost
never satisfies Theorem 1, so the generated DAG would have no coverage
edges at all. Ranges are re-drawn until they exceed the subset's largest
range, making the intended cross-level coverage hold by construction.
"""
from __future__ import annotations

import random

from repro.core.windows import Window, covers, lcm_many


def random_window(
    rnd: random.Random, s_min: int, s_max: int, k_max: int, *, tumbling: bool = False
) -> Window:
    """Algorithm 5: ``s ← Random(s_min, s_max)``, ``r ← Random({s,…,k_max·s})``."""
    if s_min > s_max:
        raise ValueError(f"s_min={s_min} > s_max={s_max}")
    s = rnd.randint(s_min, s_max)
    k = 1 if tumbling else rnd.randint(1, k_max)
    return Window(k * s, s)


def _unique(gen, n: int, max_tries: int = 10_000) -> list[Window]:
    """Draw until ``n`` distinct windows are collected.

    ``gen(accepted)`` may return ``None`` to signal a rejected draw
    (e.g. Algorithm 6's within-level coverage check). After ``max_tries``
    draws the structural rejection is relaxed — ``gen`` receives an empty
    "accepted" list so only distinctness remains — because some window
    sets make a fully flat level infeasible (a small-slide window covers
    almost every larger candidate) and the level must still be filled.
    """
    out: list[Window] = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries > 3 * max_tries:
            raise RuntimeError(f"could not generate {n} distinct windows")
        w = gen(out if tries <= max_tries else [])
        if w is not None and w not in out:
            out.append(w)
    return out


def random_gen(
    n: int = 5,
    s_max: int = 16,
    k_max: int = 8,
    seed: int = 0,
    *,
    tumbling: bool = False,
) -> list[Window]:
    """RandomGen: ``n`` independent Algorithm-5 windows, slides in [2, s_max]."""
    rnd = random.Random(repr(("random", seed, n, s_max, k_max, tumbling)))
    return _unique(
        lambda _: random_window(rnd, 2, s_max, k_max, tumbling=tumbling), n
    )


def chain_gen(
    n: int = 5,
    s_max: int = 16,
    k_max: int = 8,
    seed: int = 0,
    *,
    tumbling: bool = False,
) -> list[Window]:
    """ChainGen: ``W_{i+1}`` covered by ``W_i``.

    Construction guaranteeing coverage (Theorem 1): ``s_{i+1} = c·s_i``
    and ``r_{i+1} = k·s_{i+1}`` (automatically ≡ r_i mod s_i since both
    are multiples of s_i), retried until ``r_{i+1} > r_i``.
    """
    rnd = random.Random(repr(("chain", seed, n, s_max, k_max, tumbling)))
    out = [random_window(rnd, 2, s_max, k_max, tumbling=tumbling)]
    while len(out) < n:
        prev = out[-1]
        for _ in range(10_000):
            if tumbling:
                # tumbling child: range a proper multiple of prev's range
                # (Theorem 4 ⇒ partitioned by prev).
                r = prev.r * rnd.randint(2, 4)
                w = Window(r, r)
            else:
                # Slides may outgrow s_max along the chain: once
                # prev.r = k_max·prev.s, no larger window with slide
                # ≤ s_max exists, so the chain could never extend.
                # s_max bounds the *base* window (Algorithm 5); chain
                # extensions multiply the previous slide by 1–2.
                s = prev.s * rnd.randint(1, 2)
                k = rnd.randint(1, k_max)
                # r = k·s is a multiple of prev.s (since prev.s | s), so
                # r − r_prev ≡ 0 (mod prev.s) and Theorem 1 holds once
                # r > r_prev.
                w = Window(k * s, s)
            if w.r > prev.r and covers(w, prev) and w not in out:
                out.append(w)
                break
        else:
            raise RuntimeError("chain_gen failed to extend chain")
    return out


def star_gen(
    n: int = 5,
    s_max: int = 16,
    k_max: int = 8,
    seed: int = 0,
    *,
    tumbling: bool = False,
) -> list[Window]:
    """StarGen: each ``W_i`` (i ≥ 2) covered by the hub ``W_1``."""
    rnd = random.Random(repr(("star", seed, n, s_max, k_max, tumbling)))
    hub = random_window(rnd, 2, max(2, s_max // 2), 1 if tumbling else 2)
    if tumbling:
        hub = Window(hub.r, hub.r)
    out = [hub]

    def spoke(existing: list[Window]) -> Window | None:
        if tumbling:
            # tumbling spoke: range a proper multiple of the hub's range.
            r = hub.r * rnd.randint(2, 2 * k_max)
            w = Window(r, r)
        else:
            # slide a multiple of the hub's slide; range k·s is then a
            # multiple of hub.s, so Theorem 1 holds once r > r_hub.
            s = hub.s * rnd.randint(1, max(1, s_max // hub.s))
            k = rnd.randint(1, k_max)
            w = Window(k * s, s)
        if w.r <= hub.r or not covers(w, hub):
            return None
        return w

    out.extend(_unique(spoke, n - 1))
    return out


def random_subset(rnd: random.Random, items: list[Window], p: float) -> list[Window]:
    """RandomSubset(L, p) of Algorithm 6 — nonempty (retry if empty)."""
    for _ in range(1000):
        sub = [w for w in items if rnd.random() < p]
        if sub:
            return sub
    return [rnd.choice(items)]


def random_graph_gen(
    levels: int = 3,
    base: int = 2,
    delta: int = 2,
    p: float = 0.5,
    s_max: int = 16,
    k_max: int = 8,
    seed: int = 0,
    *,
    tumbling: bool = False,
) -> list[Window]:
    """Algorithm 6: a levelled DAG of windows, bottom-up.

    Level 0 has ``base`` windows; level ``l`` has ``base + delta·l``.
    Each upper-level window covers a random subset of the level below
    (slide = multiple of the subset's slide-lcm; range above the subset's
    max range — see the module docstring for why this deviates from the
    literal Algorithm 5 call). Each level stays an antichain: a candidate
    covered by, or covering, a window already in its level is rejected.
    """
    rnd = random.Random(repr(("graph", seed, levels, base, delta, p, s_max, k_max, tumbling)))
    level0 = _unique(
        lambda existing: _antichain_candidate(
            random_window(rnd, 2, s_max, k_max, tumbling=tumbling), existing
        ),
        base,
    )
    all_levels = [level0]
    for lvl in range(1, levels):
        want = base + delta * lvl
        below = all_levels[-1]

        def candidate(existing: list[Window]) -> Window | None:
            sub = random_subset(rnd, below, p)
            s_min = lcm_many([w.s for w in sub])
            r_floor = max(w.r for w in sub)
            if s_min > s_max * 16:  # subset slides incompatible; retry
                return None
            # Small multipliers keep slides bounded level over level —
            # otherwise the lcm of the next level's subsets explodes and
            # no candidate can be generated at all.
            s = s_min * rnd.randint(1, 2)
            k_lo = max(1, r_floor // s + 1)  # smallest k with k·s > r_floor
            if tumbling:
                k = k_lo + rnd.randint(0, k_max)
                s = k * s
                w = Window(s, s)
            else:
                k = rnd.randint(k_lo, k_lo + k_max)
                w = Window(k * s, s)
            # w covers every b in sub (Theorem 1): its slide is a multiple
            # of s_b, r_b = k_b·s_b, and its range exceeds r_floor ≥ r_b.
            return _antichain_candidate(w, existing)

        all_levels.append(_unique(candidate, want))
    out = [w for lvl in all_levels for w in lvl]
    # distinct across levels too
    return _dedupe(out)


def _antichain_candidate(w: Window, existing: list[Window]) -> Window | None:
    """Reject ``w`` if covered by a window already in the level.

    Algorithm 6 (lines 5 and 16) rejects only this direction — "if W is
    not covered by windows in L_l" — so levels are kept mostly flat
    without making large levels infeasible to fill."""
    for o in existing:
        if w != o and covers(w, o):
            return None
    return w


def _dedupe(ws: list[Window]) -> list[Window]:
    seen: set[Window] = set()
    out = []
    for w in ws:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def tumbling_variant(windows: list[Window]) -> list[Window]:
    """The paper's tumbling-only variant of a window set: replace each
    ``W⟨r,s⟩`` by the tumbling ``W⟨r,r⟩`` (duplicates collapsed)."""
    return _dedupe([Window(w.r, w.r) for w in windows])
