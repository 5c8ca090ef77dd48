"""Paned windows (Li et al., "No pane, no gain") — §5.1.

A paned window of ``W⟨r, s⟩`` slices each period of length ``s`` into
``m = s/g`` equal panes of length ``g = gcd(r, s)``. Partial aggregates
are computed per pane; each window firing combines the ``r/g`` panes
covering its range.
"""
from __future__ import annotations

import math

from repro.core.windows import Window


def pane_size(w: Window) -> int:
    """``g = gcd(r, s)`` — the pane length."""
    return math.gcd(w.r, w.s)


def panes_per_window(w: Window) -> int:
    """``r/g`` — panes combined by each firing's final aggregate."""
    return w.r // pane_size(w)
