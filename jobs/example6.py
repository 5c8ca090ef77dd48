"""Example 6 (§3.2): Algorithm 1 on the four-tumbling-window query of
Figure 1(a), plus execution of both plans on a synthetic stream.

Run: spark-submit jobs/example6.py
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.aggregates import get_aggregate
from repro.core.cost import baseline_cost
from repro.core.mincost import find_min_cost_wcg
from repro.core.windows import Window
from repro.engine.executor import execute_baseline, execute_wcg
from repro.engine.streams import event_stream

WINDOWS = [Window(x, x) for x in (10, 20, 30, 40)]


def run(spark: SparkSession) -> None:
    agg = get_aggregate("min")
    m = find_min_cost_wcg(WINDOWS, agg, eta=1)
    print(f"baseline cost C  = {baseline_cost(WINDOWS, eta=1)} (paper: 480)")
    print(f"min-cost WCG C'  = {m.total} (paper: 150)")
    print("\nrewritten plan (§3.3):")
    print(m.describe())

    ev = event_stream(spark, horizon=120, eta=2, n_keys=3, seed=7)
    base = execute_baseline(ev, WINDOWS, agg)
    res = execute_wcg(ev, m, agg)
    same = sorted(map(tuple, base.collect())) == sorted(map(tuple, res.output.collect()))
    print(f"\nexecuted on Spark: rewritten == baseline rows: {same}")


if __name__ == "__main__":
    from _common import get_spark

    run(get_spark("example6"))
