"""Composition of sliced windows across a window set — §5.1.

For the *shared* slicing techniques, the per-window slices are composed
into one common sliced window of period ``S = lcm(slides)``: its slice
edges are the union of every window's edges. ``E`` — the number of
distinct edges (= slices = partial aggregates) per period ``S`` — is the
quantity Table 1's shared costs depend on.

Each window contributes edges as residue classes modulo its slide
(pane/paired boundaries repeat every period), so the union's size is
computed either by materializing positions (small ``S``) or by DFS
inclusion–exclusion over residue classes with CRT compatibility pruning
(large ``S``); the two agree exactly and tests check that.
"""
from __future__ import annotations

import math

from repro.core.windows import Window, lcm_many
from repro.slicing import paired, paned

#: Materialize positions explicitly below this period size.
_EXPLICIT_LIMIT = 2_000_000


def slide_period(windows: list[Window]) -> int:
    """``S = lcm(s_1, …, s_n)`` — the slicing techniques' period."""
    return lcm_many([w.s for w in windows])


def edge_classes(windows: list[Window], technique: str) -> list[tuple[int, int]]:
    """Each window's edges as residue classes ``(residue, modulus)``.

    A paned window's edges are the multiples of its pane, ``(0, g)``. A
    paired window's edge at offset ``e`` within a period of ``s`` occurs
    at all positions ``≡ e (mod s)``; offsets are normalized to
    ``[0, s)`` so the period-end edge ``s`` maps to residue 0.
    """
    if technique == "paned":
        return sorted({(0, paned.pane_size(w)) for w in windows})
    if technique != "paired":
        raise ValueError(f"unknown slicing technique {technique!r}")
    return sorted({(e % w.s, w.s) for w in windows for e in paired.slice_edges_per_period(w)})


def _count_union_explicit(classes: list[tuple[int, int]], S: int) -> int:
    positions: set[int] = set()
    for res, m in classes:
        positions.update(range(res, S, m))
    return len(positions)


def _count_union_crt(classes: list[tuple[int, int]], S: int) -> int:
    """|union of residue classes| in [0, S) by inclusion–exclusion.

    DFS over subsets; a subset's intersection is one residue class mod
    ``lcm`` (CRT) when pairwise-compatible, empty otherwise — and any
    superset of an incompatible subset stays empty, which prunes the
    exponential enumeration to the compatible sub-lattice.
    """

    def compatible(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
        g = math.gcd(m1, m2)
        if (r1 - r2) % g:
            return None
        lcm = m1 // g * m2
        # CRT merge: find x ≡ r1 (mod m1), x ≡ r2 (mod m2).
        # x = r1 + m1·t with m1·t ≡ r2−r1 (mod m2).
        t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
        return ((r1 + m1 * t) % lcm, lcm)

    total = 0

    def dfs(idx: int, res: int, mod: int, size: int) -> None:
        nonlocal total
        if size > 0:
            total += (-1) ** (size + 1) * (S // mod)
        for j in range(idx, len(classes)):
            r2, m2 = classes[j]
            merged = compatible(res, mod, r2, m2) if size else (r2, m2)
            if merged is not None:
                dfs(j + 1, merged[0], merged[1], size + 1)

    dfs(0, 0, 1, 0)
    return total


def composed_edge_count(
    windows: list[Window], technique: str, S: int | None = None
) -> int:
    """``E`` — distinct slice edges of the composed sliced window per
    period ``S``. ``technique`` is ``"paned"`` or ``"paired"``."""
    S = slide_period(windows) if S is None else S
    classes = edge_classes(windows, technique)
    if S <= _EXPLICIT_LIMIT:
        return _count_union_explicit(classes, S)
    return _count_union_crt(classes, S)


def composed_edges(windows: list[Window], technique: str, horizon: int) -> list[int]:
    """All composed slice-edge positions in ``(0, horizon]``, sorted.

    Lists the slice boundaries over a concrete stream (``horizon`` is
    its span, not the abstract period) for tests and the benchmark; the
    executable slicing engine reads :func:`edge_classes` instead.
    """
    classes = edge_classes(windows, technique)
    positions: set[int] = set()
    for res, m in classes:
        start = res if res > 0 else m
        positions.update(range(start, horizon + 1, m))
    return sorted(positions)
