"""Paired windows (Krishnamurthy et al., "On-the-fly sharing") — §5.1.

A paired window of ``W⟨r, s⟩`` slices each period of length ``s`` into at
most two unequal slices, ``z2 = r mod s`` and then ``z1 = s − z2``:
instances ``[m·s, m·s + r)`` start at a multiple of ``s`` and end at
residue ``z2``. When ``r`` is a multiple of ``s`` (all tumbling windows,
and every window our generators emit), ``z2 = 0`` and the paired window
degenerates to a single slice per period — which is why paired final
costs collapse for tumbling window sets.
"""
from __future__ import annotations

import math

from repro.core.windows import Window


def slices_per_window(w: Window) -> int:
    """Actual slices combined by one firing's final aggregate.

    ``2·(r/s)`` slices (a z1 and a z2 per overlapped period) in the
    general case, degenerating to ``r/s`` single slices when ``r`` is a
    multiple of ``s``. Only tests read it; the executable slicing engine
    (:mod:`repro.engine.sliced_exec`) rolls each window up from the
    composed slices it contains instead.
    """
    if w.r % w.s == 0:
        return w.r // w.s
    return math.ceil(2 * w.r / w.s)


def table1_slices_per_window(w: Window) -> int:
    """The literal Table-1 final-aggregate count ``⌈2r/s⌉``.

    The paper's cost figures use this formula even when ``r mod s = 0``
    (every window Algorithm 5 emits), where the true count is ``r/s`` —
    the analytic UP/SP costs therefore over-count degenerate paired
    windows by 2×. We keep the literal formula for figure reproduction
    and the exact count (:func:`slices_per_window`) beside it.
    """
    return math.ceil(2 * w.r / w.s)
