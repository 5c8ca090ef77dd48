"""Metering of one window from raw events, kept for the benchmark's
per-operator report (``perfbench``'s ``meter_plan``).

A plan's own counts come from the chain that runs it,
:meth:`repro.engine.executor.ExecutionResult.pairs`; over one
hyperperiod of a steady η-rate stream they equal the model's ``c_i``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.windows import Window
from repro.engine.rollup import assignment_count


def raw_assignment_count(events: DataFrame, w: Window, horizon: int) -> int:
    """(event, instance) pairs a direct window aggregate processes,
    counted with the assignment operator the root window runs: each
    event at ``tick ≥ 0`` is the unit interval ``[tick, tick+1)``."""
    units = events.where("tick >= 0").selectExpr("tick AS win_start", "tick + 1 AS win_end")
    return assignment_count(units, w, horizon)
