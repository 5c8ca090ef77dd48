"""Wall-clock comparison of executed plans: BL vs WCG vs WCG-FW.

Runs the three plans on a steady-rate stream over many hyperperiods and
reports elapsed time plus the analytic cost ratio for context. This is
the executed counterpart of the analytic figures: the rewritten plans
read sub-aggregates instead of re-aggregating raw events, so their
advantage grows with the event rate η.

Run: spark-submit jobs/exec_compare.py [horizon] [eta]
"""
from __future__ import annotations

import sys
import time

from pyspark.sql import SparkSession

from repro.core.aggregates import get_aggregate
from repro.core.factor import optimize
from repro.core.mincost import find_min_cost_wcg
from repro.core.windows import Window
from repro.engine.executor import execute_baseline, execute_wcg
from repro.engine.streams import event_stream

WINDOWS = [Window(x, x) for x in (10, 20, 30, 40)]


def run(spark: SparkSession, horizon: int = 2400, eta: int = 40) -> dict[str, float]:
    agg = get_aggregate("min")
    ev = event_stream(spark, horizon=horizon, eta=eta, n_keys=8, seed=1)
    ev.persist().count()
    timings: dict[str, float] = {}

    def timed(name, df):
        # collect() the full answer: count() lets Catalyst prune the aggregate.
        t0 = time.perf_counter()
        n = len(df.collect())
        timings[name] = time.perf_counter() - t0
        print(f"{name:<8} rows={n:<8} elapsed={timings[name]:.2f}s")

    timed("BL", execute_baseline(ev, WINDOWS, agg))
    m1 = find_min_cost_wcg(WINDOWS, agg, eta=eta)
    timed("WCG", execute_wcg(ev, m1, agg).output)
    m2 = optimize(WINDOWS, agg, eta=eta)
    timed("WCG-FW", execute_wcg(ev, m2, agg).output)
    print(
        f"model costs over R: BL={sum(eta * w.r * (m1.R // w.r) for w in WINDOWS)} "
        f"WCG={m1.total} WCG-FW={m2.total}"
    )
    ev.unpersist()
    return timings


if __name__ == "__main__":
    from _common import get_spark

    horizon = int(sys.argv[1]) if len(sys.argv) > 1 else 2400
    eta = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    run(get_spark("exec_compare"), horizon, eta)
