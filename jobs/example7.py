"""Examples 7–8 (§4): factor windows on the {20,30,40} query.

Run: spark-submit jobs/example7.py
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.aggregates import get_aggregate
from repro.core.factor import algorithm2, optimize
from repro.core.mincost import find_min_cost_wcg
from repro.core.windows import Window
from repro.engine.executor import execute_baseline, execute_wcg
from repro.engine.streams import event_stream

WINDOWS = [Window(x, x) for x in (20, 30, 40)]


def run(spark: SparkSession) -> None:
    agg = get_aggregate("sum")
    no_factor = find_min_cost_wcg(WINDOWS, agg, eta=1)
    with_factor = algorithm2(WINDOWS, agg, eta=1)
    print(f"baseline cost C   = 360 (3·R)")
    print(f"Algorithm 1 C'    = {no_factor.total} (paper: 246)")
    print(f"Algorithm 2 C''   = {with_factor.total} (paper: 150)")
    print(f"factor windows    = {sorted(map(str, with_factor.factors))} (paper: ['W(10,10)'])")
    print("\nrewritten plan with hidden factor window:")
    print(with_factor.describe())

    ev = event_stream(spark, horizon=120, eta=2, n_keys=3, seed=7)
    base = execute_baseline(ev, WINDOWS, agg)
    res = execute_wcg(ev, optimize(WINDOWS, agg, eta=1), agg)

    def rows(df):
        # SUM merges partials in a different order than the direct plan,
        # so compare values at 1e-6 like the DuckDB oracle does.
        return sorted(
            (r.window_id, r.win_start, r.win_end, r.key, round(r.value, 6))
            for r in df.collect()
        )

    same = rows(base) == rows(res.output)
    print(f"\nexecuted on Spark: factor-window plan == baseline rows: {same}")


if __name__ == "__main__":
    from _common import get_spark

    run(get_spark("example7"))
