"""Table 1 (§5.1): analytic slicing costs, validated on Spark.

Prints the four Table-1 rows for a general and a tumbling window set,
and cross-checks the executable sliced evaluation against the baseline.

Run: spark-submit jobs/table1.py
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.aggregates import get_aggregate
from repro.core.windows import Window
from repro.engine.executor import execute_baseline
from repro.engine.sliced_exec import sliced_window_agg
from repro.engine.streams import event_stream
from repro.slicing.cost import table1

GENERAL = [Window(12, 4), Window(10, 2), Window(6, 6)]
TUMBLING = [Window(4, 4), Window(6, 6), Window(12, 12)]


def run(spark: SparkSession) -> None:
    for label, ws in [("general", GENERAL), ("tumbling", TUMBLING)]:
        print(f"\nTable 1 costs, {label} window set {[str(w) for w in ws]}, eta=100:")
        print(f"{'technique':<18}{'partial':>10}{'final':>10}{'total':>10}")
        for name, c in table1(ws, eta=100).items():
            print(f"{name:<18}{c.partial:>10}{c.final:>10}{c.total:>10}")

    ev = event_stream(spark, horizon=60, eta=2, n_keys=2, seed=11)
    agg = get_aggregate("min")
    base = sorted(map(tuple, execute_baseline(ev, GENERAL, agg).collect()))
    for technique in ("paned", "paired"):
        for shared in (True, False):
            df = sliced_window_agg(ev, GENERAL, agg, technique=technique, shared=shared)
            got = sorted(map(tuple, df.collect()))
            tag = ("shared" if shared else "unshared") + " " + technique
            print(f"executable {tag:<18} == baseline rows: {got == base}")


if __name__ == "__main__":
    from _common import get_spark

    run(get_spark("table1"))
