"""Window algebra: ranges, slides, intervals, coverage and partitioning.

This module implements Section 2 of the paper:

* ``Window`` — the ⟨range, slide⟩ representation (§2.1) plus the interval
  representation ``[m·s, m·s + r)`` (§2.1.1).
* ``covers`` — the window-coverage partial order ``W1 ≤ W2`` via the
  arithmetic test of Theorem 1 (``W2`` covers ``W1``).
* ``partitions`` — window partitioning via Theorem 4 (upstream tumbling).
* ``covering_multiplier`` — ``M(W1, W2) = 1 + (r1 − r2)/s2`` (Theorem 3).
* ``covering_set`` — the covering interval set ``I_{a,b}`` of Definition 2,
  used by tests to validate the theorems against brute-force enumeration.

All quantities are exact Python integers; hyperperiods of random window
sets overflow float precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True)
class Window:
    """A window ⟨r, s⟩ with integer range ``r`` and slide ``s``, 0 < s ≤ r.

    The interval representation is ``{[m·s, m·s + r) : m ≥ 0}``. The paper
    (and this reproduction) additionally assumes ``r`` is a multiple of
    ``s`` so that recurrence counts are integers (§3.2.1, footnote 4);
    ``Window`` itself only enforces ``0 < s ≤ r`` so the algebra stays
    general, and the cost model counts the instances inside its period,
    which needs no divisibility.
    """

    r: int
    s: int

    def __post_init__(self) -> None:
        if not (isinstance(self.r, int) and isinstance(self.s, int)):
            raise TypeError(f"range/slide must be ints, got {self.r!r}, {self.s!r}")
        if not 0 < self.s <= self.r:
            raise ValueError(f"need 0 < s <= r, got r={self.r}, s={self.s}")
        object.__setattr__(self, "_hash", hash((self.r, self.s)))

    # The optimizer's most frequent calls, so written by hand with the
    # hash computed once: the generated pair builds tuples on every call.
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Window:
            return NotImplemented
        return self.r == other.r and self.s == other.s

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_tumbling(self) -> bool:
        """True when slide equals range (ASA's tumbling window)."""
        return self.r == self.s

    @property
    def k(self) -> int:
        """The range-over-slide ratio ``k = r/s`` used throughout §4.

        Raises if ``r`` is not a multiple of ``s`` — every workload in the
        paper satisfies this (Algorithm 5 draws ``r ∈ {s, 2s, …}``).
        """
        if self.r % self.s:
            raise ValueError(f"r={self.r} not a multiple of s={self.s}")
        return self.r // self.s

    def intervals(self, horizon: int) -> Iterator[tuple[int, int]]:
        """Yield intervals ``[m·s, m·s + r)`` that start before ``horizon``."""
        m = 0
        while m * self.s < horizon:
            yield (m * self.s, m * self.s + self.r)
            m += 1

    def intervals_within(self, t: int) -> Iterator[tuple[int, int]]:
        """Yield the intervals fully contained in ``[0, t]``.

        These are exactly the ``n_i`` instances the cost model counts over
        a hyperperiod ``t = R`` (Figure 5).
        """
        m = 0
        while m * self.s + self.r <= t:
            yield (m * self.s, m * self.s + self.r)
            m += 1

    def __repr__(self) -> str:  # ⟨r, s⟩, matching the paper's notation
        return f"W({self.r},{self.s})"


def covers(w1: Window, w2: Window) -> bool:
    """Return True iff ``w1`` is covered by ``w2`` (``w1 ≤ w2``).

    Theorem 1: ``w1 ≤ w2`` iff ``s1`` is a multiple of ``s2`` and
    ``r1 − r2`` is a multiple of ``s2``. A window covers itself
    (Definition 1's special case); otherwise coverage requires
    ``r1 > r2``.
    """
    if w1 == w2:
        return True
    if w1.r <= w2.r:
        return False
    return w1.s % w2.s == 0 and (w1.r - w2.r) % w2.s == 0


def partitions(w1: Window, w2: Window) -> bool:
    """Return True iff ``w1`` is partitioned by ``w2``.

    Theorem 4: requires (1) ``s1`` multiple of ``s2``, (2) ``r1`` multiple
    of ``s2``, and (3) ``w2`` tumbling. Like coverage, a window partitions
    itself (the trivial one-piece partition).
    """
    if w1 == w2:
        return True
    if w1.r <= w2.r:
        return False
    return w1.s % w2.s == 0 and w1.r % w2.s == 0 and w2.is_tumbling


def covering_multiplier(w1: Window, w2: Window) -> int:
    """``M(w1, w2)``: number of ``w2`` intervals in each covering set.

    Theorem 3: ``M = 1 + (r1 − r2)/s2``, defined when ``w1 ≤ w2``.
    """
    if not covers(w1, w2):
        raise ValueError(f"{w1} is not covered by {w2}")
    return 1 + (w1.r - w2.r) // w2.s


def covering_set(interval: tuple[int, int], w2: Window) -> list[tuple[int, int]]:
    """The covering set ``I_{a,b}`` (Definition 2) of ``interval`` in ``w2``.

    All intervals ``[u, v)`` of ``w2`` with ``a ≤ u`` and ``v ≤ b``.
    Brute-force companion to :func:`covering_multiplier`, used by tests.
    """
    a, b = interval
    out = []
    m = max(0, -(-(a) // w2.s))  # first m with m·s ≥ a
    while m * w2.s + w2.r <= b:
        if m * w2.s >= a:
            out.append((m * w2.s, m * w2.s + w2.r))
        m += 1
    return out


def interval_covered(interval: tuple[int, int], cover: list[tuple[int, int]]) -> bool:
    """Definition 3: ``interval`` equals the union of ``cover``."""
    a, b = interval
    if not cover:
        return False
    pts = sorted(cover)
    if pts[0][0] != a:
        return False
    reach = pts[0][1]
    for u, v in pts[1:]:
        if u > reach:
            return False
        reach = max(reach, v)
    return reach == b


def interval_partitioned(interval: tuple[int, int], cover: list[tuple[int, int]]) -> bool:
    """Definition 4: covered by mutually exclusive intervals."""
    if not interval_covered(interval, cover):
        return False
    pts = sorted(cover)
    return all(pts[i][1] <= pts[i + 1][0] for i in range(len(pts) - 1))


def lcm_many(values: list[int]) -> int:
    """Exact lcm of a non-empty list of positive ints."""
    if not values:
        raise ValueError("lcm of empty list")
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def gcd_many(values: list[int]) -> int:
    """Exact gcd of a non-empty list of positive ints."""
    if not values:
        raise ValueError("gcd of empty list")
    out = 0
    for v in values:
        out = math.gcd(out, v)
    return out


def hyperperiod(windows: list[Window]) -> int:
    """``R = lcm(r_1, …, r_n)`` — the cost-model period of §3.2.1."""
    return lcm_many([w.r for w in windows])
