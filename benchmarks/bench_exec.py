"""Executed-plan wall-clock benchmarks: BL vs WCG vs WCG-FW on Spark.

The stream covers 20 hyperperiods of Example 6/7 at η = 50 (~120k
events). The rewritten plans aggregate sub-aggregates instead of
re-scanning raw events per window, which shows up as lower wall time on
top of the exactly-modeled lower operation counts (see test_metering).
Each plan runs ``pedantic`` (2 rounds, 1 warm-up) because a Spark job is
far above pytest-benchmark's default calibration scale. Every timed call
collects the full answer: ``count()`` would let Catalyst prune the
aggregate out of the plan.
"""
import pytest

from repro.core.aggregates import get_aggregate
from repro.core.factor import optimize
from repro.core.mincost import find_min_cost_wcg
from repro.core.windows import Window
from repro.engine.executor import execute_baseline, execute_wcg
from repro.engine.streams import event_stream

EX6 = [Window(x, x) for x in (10, 20, 30, 40)]
EX7 = [Window(x, x) for x in (20, 30, 40)]
# Deep hopping chain: the baseline explodes every event into r/s = 6,
# 12, 24 and 48 window instances (90 copies total) while the rewritten
# plan explodes only the root (×6) and rolls the rest up — the regime
# where the rewriting wins wall-clock, not just operation counts.
HOP = [Window(60, 10), Window(120, 10), Window(240, 10), Window(480, 10)]
HORIZON = 2400
ETA = 50
HOP_HORIZON = 4800
HOP_ETA = 1000
MIN = get_aggregate("min")

# Row counts are identical across plans for the same window set; each
# bench asserts its plan returns this many output rows.
_EXPECTED: dict[tuple[Window, ...], int] = {}


@pytest.fixture(scope="module")
def events(spark):
    df = event_stream(spark, horizon=HORIZON, eta=ETA, n_keys=8, seed=1)
    df.persist().count()
    yield df
    df.unpersist()


def _expected_rows(events, windows):
    key = tuple(windows)
    if key not in _EXPECTED:
        _EXPECTED[key] = len(execute_baseline(events, windows, MIN).collect())
    return _EXPECTED[key]


def _bench(benchmark, fn, expect):
    out = benchmark.pedantic(fn, rounds=2, warmup_rounds=1)
    assert out == expect


@pytest.mark.benchmark(group="exec-ex6")
def test_bench_ex6_baseline(benchmark, spark, events):
    expect = _expected_rows(events, EX6)
    _bench(benchmark, lambda: len(execute_baseline(events, EX6, MIN).collect()), expect)


@pytest.mark.benchmark(group="exec-ex6")
def test_bench_ex6_wcg(benchmark, spark, events):
    expect = _expected_rows(events, EX6)
    m = find_min_cost_wcg(EX6, MIN, eta=ETA)

    def run():
        res = execute_wcg(events, m, MIN)
        n = len(res.output.collect())
        res.unpersist()
        return n

    _bench(benchmark, run, expect)


@pytest.mark.benchmark(group="exec-ex7")
def test_bench_ex7_baseline(benchmark, spark, events):
    expect = _expected_rows(events, EX7)
    _bench(benchmark, lambda: len(execute_baseline(events, EX7, MIN).collect()), expect)


@pytest.mark.benchmark(group="exec-ex7")
def test_bench_ex7_wcg_fw(benchmark, spark, events):
    expect = _expected_rows(events, EX7)
    m = optimize(EX7, MIN, eta=ETA)

    def run():
        res = execute_wcg(events, m, MIN)
        n = len(res.output.collect())
        res.unpersist()
        return n

    _bench(benchmark, run, expect)


@pytest.fixture(scope="module")
def hop_events(spark):
    df = event_stream(spark, horizon=HOP_HORIZON, eta=HOP_ETA, n_keys=8, seed=1)
    df.persist().count()
    yield df
    df.unpersist()


def _bench_once(benchmark, fn, expect):
    # ~20–30 s per Spark job: single measured round, no warm-up.
    out = benchmark.pedantic(fn, rounds=1, warmup_rounds=0)
    assert out == expect


@pytest.mark.benchmark(group="exec-hop")
def test_bench_hop_baseline(benchmark, spark, hop_events):
    expect = _expected_rows(hop_events, HOP)
    _bench_once(benchmark, lambda: len(execute_baseline(hop_events, HOP, MIN).collect()), expect)


@pytest.mark.benchmark(group="exec-hop")
def test_bench_hop_wcg(benchmark, spark, hop_events):
    expect = _expected_rows(hop_events, HOP)
    m = find_min_cost_wcg(HOP, MIN, eta=HOP_ETA)

    def run():
        res = execute_wcg(hop_events, m, MIN)
        n = len(res.output.collect())
        res.unpersist()
        return n

    _bench_once(benchmark, run, expect)


@pytest.mark.benchmark(group="exec-hop")
def test_bench_hop_wcg_fw(benchmark, spark, hop_events):
    expect = _expected_rows(hop_events, HOP)
    m = optimize(HOP, MIN, eta=HOP_ETA)

    def run():
        res = execute_wcg(hop_events, m, MIN)
        n = len(res.output.collect())
        res.unpersist()
        return n

    _bench_once(benchmark, run, expect)
