"""Cost model for window aggregates over a WCG — §3.2.1.

Over one hyperperiod ``R = lcm(ranges)`` with steady event rate ``η``:

* recurrence count ``n_i = 1 + (m_i − 1)·r_i/s_i`` with ``m_i = R/r_i``
  (Equation 1, Figure 5) — the number of window instances fully inside
  a period of length ``R``;
* a window computed from raw events costs ``n_i · η · r_i`` (η·r events
  per instance);
* a window rolled up from a covering parent ``W'`` costs
  ``n_i · M(W_i, W')`` — each instance reads ``M`` sub-aggregates
  (Observation 1).

Costs are exact integers. ``window_cost`` returns the cost of one window
given its chosen parent (or ``None`` for raw); ``total_cost`` sums a full
parent assignment.
"""
from __future__ import annotations

from repro.core.windows import Window, covering_multiplier, hyperperiod


def recurrence_count(w: Window, R: int) -> int:
    """``n_i`` — window instances fully inside ``[0, R]`` (Figure 5).

    Computed as ``n = 1 + ⌊(R − r)/s⌋`` (Figure 5's ``R = (n−1)·s + r``),
    which equals Equation 1's ``1 + (m−1)·r/s`` when ``R`` is a multiple
    of ``r``. The direct form also covers factor windows, whose range
    need not divide ``R``, and windows with ``r mod s ≠ 0``, whose last
    instance may end before ``R``; a window longer than ``R`` has none."""
    return max(0, 1 + (R - w.r) // w.s)


def raw_cost(w: Window, R: int, eta: int) -> int:
    """Cost of computing ``w`` directly from the stream: ``n·η·r``."""
    return recurrence_count(w, R) * eta * w.r


def rollup_cost(w: Window, parent: Window, R: int) -> int:
    """Cost of computing ``w`` from ``parent``'s sub-aggregates:
    ``n · M(w, parent)`` (Observation 1 / Algorithm 1 line 5)."""
    return recurrence_count(w, R) * covering_multiplier(w, parent)


def window_cost(w: Window, parent: Window | None, R: int, eta: int) -> int:
    """Cost of ``w`` given its chosen upstream (``None`` = from raw)."""
    if parent is None:
        return raw_cost(w, R, eta)
    return rollup_cost(w, parent, R)


def total_cost(
    assignment: dict[Window, Window | None], R: int, eta: int
) -> int:
    """Total cost ``C = Σ c_i`` of a parent assignment over period ``R``."""
    return sum(window_cost(w, p, R, eta) for w, p in assignment.items())


def baseline_cost(windows: list[Window], eta: int, R: int | None = None) -> int:
    """Cost of the naive plan (every window from raw) over period ``R``."""
    R = hyperperiod(windows) if R is None else R
    return sum(raw_cost(w, R, eta) for w in windows)
