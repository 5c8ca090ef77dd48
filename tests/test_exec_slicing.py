"""Executable window slicing on Spark: shared/unshared × paned/paired
must reproduce the baseline plan's results exactly (DuckDB oracle)."""
import pandas as pd
import pytest

from repro.core.aggregates import get_aggregate
from repro.core.windows import Window
from repro.engine.oracle_sql import multi_window_sql
from repro.engine.sliced_exec import sliced_window_agg, slice_partials
from repro.engine.streams import event_stream, event_stream_pdf
from repro.oracle import assert_equivalent

HORIZON = 60
GENERAL = [Window(12, 4), Window(10, 2), Window(6, 6)]
TUMBLING = [Window(4, 4), Window(6, 6), Window(12, 12)]


@pytest.fixture(scope="module")
def events(spark):
    df = event_stream(spark, horizon=HORIZON, eta=2, n_keys=2, seed=11)
    df.persist().count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def events_pdf():
    return event_stream_pdf(horizon=HORIZON, eta=2, n_keys=2, seed=11)


def _slices(events, edges):
    """The rows of :func:`slice_partials` under COUNT, each a slice
    ``[win_start, win_end)`` of one key, checked to count exactly the
    events of its key that sit in it, every event in exactly one."""
    rows = slice_partials(events, edges, get_aggregate("count")).collect()
    ticks = [(e.tick, e.key) for e in events.collect()]
    for r in rows:
        assert r._count == sum(k == r.key and r.win_start <= t < r.win_end for t, k in ticks)
    for t, k in ticks:
        assert sum(r.key == k and r.win_start <= t < r.win_end for r in rows) == 1
    assert sum(r._count for r in rows) == HORIZON * 2
    return rows


class TestSliceAssignment:
    def test_every_event_in_its_slice(self, spark, events):
        _slices(events, [4, 8, 10, 20, 40, 60])

    def test_listed_edges_repeat_every_last_edge(self, spark, events):
        # [4, 8, 10, 20] repeats every 20 ticks: tick 25 is in [24, 28).
        rows = _slices(events, [4, 8, 10, 20])
        holding = {(r.win_start, r.win_end) for r in rows for t in (25, 39, 40)
                   if r.win_start <= t < r.win_end}
        assert holding == {(24, 28), (30, 40), (40, 44)}
        pieces = {(r.win_start % 20, r.win_end - r.win_start) for r in rows}
        assert pieces == {(0, 4), (4, 4), (8, 2), (10, 10)}

    def test_partials_one_row_per_slice_key(self, spark, events):
        agg = get_aggregate("count")
        edges = list(range(10, HORIZON + 1, 10))
        partials = slice_partials(events, edges, agg).collect()
        # every (slice, key) pair has events in a steady stream:
        assert len(partials) == len(edges) * 2
        assert sum(r._count for r in partials) == HORIZON * 2


@pytest.mark.parametrize("technique", ["paned", "paired"])
@pytest.mark.parametrize("shared", [True, False])
class TestSlicedEvaluation:
    def test_general_windows_min(self, spark, events, events_pdf, technique, shared):
        agg = get_aggregate("min")
        got = sliced_window_agg(events, GENERAL, agg, technique=technique, shared=shared)
        assert_equivalent(
            got, multi_window_sql(GENERAL, agg, HORIZON), events=events_pdf
        )

    def test_tumbling_windows_sum(self, spark, events, events_pdf, technique, shared):
        agg = get_aggregate("sum")
        got = sliced_window_agg(events, TUMBLING, agg, technique=technique, shared=shared)
        assert_equivalent(
            got, multi_window_sql(TUMBLING, agg, HORIZON), events=events_pdf
        )

    def test_avg_algebraic_state(self, spark, events, events_pdf, technique, shared):
        agg = get_aggregate("avg")
        ws = [Window(6, 2), Window(12, 6)]
        got = sliced_window_agg(events, ws, agg, technique=technique, shared=shared)
        assert_equivalent(got, multi_window_sql(ws, agg, HORIZON), events=events_pdf)

    @pytest.mark.parametrize("agg_name", ["count", "min", "sum", "avg"])
    @pytest.mark.parametrize(
        "ws", [[Window(4, 3)], [Window(11, 7), Window(13, 3), Window(21, 5)]],
        ids=["4-3", "11-7,13-3,21-5"],
    )
    def test_r_mod_s_nonzero(self, spark, events, events_pdf, technique, shared, ws, agg_name):
        # Instances [m·s, m·s + r) end at residue r mod s of their slide.
        agg = get_aggregate(agg_name)
        got = sliced_window_agg(events, ws, agg, technique=technique, shared=shared)
        assert_equivalent(got, multi_window_sql(ws, agg, HORIZON), events=events_pdf)


@pytest.mark.parametrize("horizon", [HORIZON, None])
@pytest.mark.parametrize("agg_name", ["min", "sum"])
def test_coprime_slides_vs_oracle(spark, events, events_pdf, agg_name, horizon):
    # S = lcm(7, 9, 11, 13, 16) = 144,144 ticks, and no edge is listed.
    # ``horizon`` is still accepted, and not read: both give the same rows.
    ws = [Window(21, 7), Window(9, 9), Window(22, 11), Window(13, 13), Window(32, 16)]
    agg = get_aggregate(agg_name)
    got = sliced_window_agg(events, ws, agg, horizon=horizon)
    assert_equivalent(got, multi_window_sql(ws, agg, HORIZON), events=events_pdf)


def test_plan_is_built_without_a_spark_job(spark, events):
    sc = spark.sparkContext
    sc.setJobGroup("sp-build", "sp-build")
    try:
        df = sliced_window_agg(events, GENERAL, get_aggregate("min"))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert list(sc.statusTracker().getJobIdsForGroup("sp-build")) == []
    assert df.count() > 0


EDGE_STREAMS = {
    "empty": [],
    "null_v": [(0, 0, 1.5), (3, 0, None), (5, 0, None), (6, 0, None), (9, 0, 2.0)],
    "before_0": [(-5, 0, 100.0), (0, 0, 1.0), (3, 0, 2.0), (7, 0, -1.0), (11, 0, 0.5)],
    "past_last_edge": [(0, 0, 1.0), (3, 0, 2.0), (7, 0, -1.0), (11, 0, 0.5), (500, 0, 3.0)],
}


@pytest.mark.parametrize("stream", sorted(EDGE_STREAMS))
@pytest.mark.parametrize("agg_name", ["min", "max", "sum", "count", "avg"])
def test_shared_paired_edge_streams_vs_oracle(spark, agg_name, stream):
    # Events before 0 belong to no instance and later ticks to the
    # instances they fall in, as in the baseline plan; an empty stream
    # has no rows.
    rows = EDGE_STREAMS[stream]
    ev = spark.createDataFrame(rows, "tick long, key long, v double")
    pdf = pd.DataFrame(rows, columns=["tick", "key", "v"]).astype(
        {"tick": "int64", "key": "int64", "v": "Float64"}
    )
    ws = [Window(4, 4), Window(8, 4)]
    agg = get_aggregate(agg_name)
    got = sliced_window_agg(ev, ws, agg)
    assert_equivalent(got, multi_window_sql(ws, agg, 600), events=pdf)
