"""Composition of sliced windows across a window set — §5.1.

For the *shared* slicing techniques, the per-window slices are composed
into one common sliced window of period ``S = lcm(slides)``: its slice
edges are the union of every window's edges. ``E`` — the number of
distinct edges (= slices = partial aggregates) per period ``S`` — is the
quantity Table 1's shared costs depend on.

Each window contributes edges as residue classes modulo its slide
(pane/paired boundaries repeat every period). :func:`edge_classes` drops
every class that another class holds, and the union's size is counted
one way, exact for any ``S``: DFS inclusion–exclusion over the remaining
classes with CRT compatibility pruning. Tests check it against the
positions listed straight from each window's definition.
"""
from __future__ import annotations

import math

from repro.core.windows import Window, lcm_many
from repro.slicing import paned


def slide_period(windows: list[Window]) -> int:
    """``S = lcm(s_1, …, s_n)`` — the slicing techniques' period."""
    return lcm_many([w.s for w in windows])


def edge_classes(windows: list[Window], technique: str) -> list[tuple[int, int]]:
    """The window set's edges as residue classes ``(residue, modulus)``,
    sorted, none held by another.

    A paned window's edges are the multiples of its pane, ``(0, g)``. A
    paired window's are ``(0, s)`` and ``(r mod s, s)``: its instances
    ``[m·s, m·s + r)`` start at a multiple of ``s`` and end at residue
    ``r mod s`` (not ``s − r mod s``, which mirrors the edges). A class
    ``(r, m)`` is dropped when another ``(r', m')`` holds it: ``m' | m``
    and ``r ≡ r' (mod m')``.
    """
    if technique == "paned":
        classes = {(0, paned.pane_size(w)) for w in windows}
    elif technique == "paired":
        classes = {c for w in windows for c in ((0, w.s), (w.r % w.s, w.s))}
    else:
        raise ValueError(f"unknown slicing technique {technique!r}")
    return sorted(
        (r, m) for r, m in classes
        if not any((r2, m2) != (r, m) and m % m2 == 0 and (r - r2) % m2 == 0
                   for r2, m2 in classes)
    )


def composed_edge_count(windows: list[Window], technique: str) -> int:
    """``E`` — distinct slice edges of the composed sliced window per
    period ``S``. ``technique`` is ``"paned"`` or ``"paired"``.

    Inclusion–exclusion over :func:`edge_classes` by DFS over subsets: a
    subset's intersection is one residue class mod the lcm of its moduli
    (CRT) when pairwise-compatible and empty otherwise, as is that of
    every superset, which prunes the enumeration to the compatible
    sub-lattice. Every modulus divides ``S``, so a class mod ``m`` holds
    ``S // m`` positions of ``[0, S)``.
    """
    S = slide_period(windows)
    classes = edge_classes(windows, technique)

    def dfs(idx: int, res: int, mod: int, sign: int) -> int:
        total = 0
        for j in range(idx, len(classes)):
            r2, m2 = classes[j]
            g = math.gcd(mod, m2)
            if (r2 - res) % g:
                continue
            # CRT merge: x = res + mod·t with mod·t ≡ r2 − res (mod m2).
            t = (r2 - res) // g * pow(mod // g, -1, m2 // g) % (m2 // g)
            lcm = mod // g * m2
            total += sign * (S // lcm) + dfs(j + 1, (res + mod * t) % lcm, lcm, -sign)
        return total

    return dfs(0, 0, 1, 1)


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
