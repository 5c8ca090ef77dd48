"""Executable window slicing on Spark: shared/unshared × paned/paired
must reproduce the baseline plan's results exactly (DuckDB oracle)."""
import pandas as pd
import pytest

from repro.core.aggregates import get_aggregate
from repro.core.windows import Window
from repro.engine.oracle_sql import multi_window_sql
from repro.engine.sliced_exec import assign_slices, edge_period, sliced_window_agg, slice_partials
from repro.engine.streams import event_stream, event_stream_pdf
from repro.oracle import assert_equivalent
from repro.slicing.compose import composed_edges

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


class TestSliceAssignment:
    def test_every_event_in_its_slice(self, spark, events):
        edges = [4, 8, 10, 20, 40, 60]
        rows = assign_slices(events, edges).collect()
        assert len(rows) == HORIZON * 2
        for r in rows:
            assert r.slice_start <= r.tick < r.slice_end

    def test_period_recovered_from_edges(self):
        # Example 7's composed edges repeat every 60 ticks however far they
        # are listed; a list that never repeats is its own period.
        edges = [e for e in range(1, 400) if e % 20 == 0 or e % 30 == 0]
        assert edge_period(edges) == 60
        assert edge_period(edges[:8]) == 60  # up to 120: two periods
        # A list shorter than two periods shows no repetition.
        assert edge_period(edges[:7]) == 100
        assert edge_period([4, 8, 10, 20, 40, 60]) == 60
        assert edge_period([5]) == 5

    def test_events_past_a_non_repeating_list_drop_out(self, spark, events):
        rows = assign_slices(events, [4, 8, 10, 20]).collect()
        assert len(rows) == 20 * 2
        for r in rows:
            assert r.slice_start <= r.tick < r.slice_end <= 20

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
        got = sliced_window_agg(
            events, GENERAL, agg, technique=technique, shared=shared, horizon=HORIZON
        )
        assert_equivalent(
            got, multi_window_sql(GENERAL, agg, HORIZON), events=events_pdf
        )

    def test_tumbling_windows_sum(self, spark, events, events_pdf, technique, shared):
        agg = get_aggregate("sum")
        got = sliced_window_agg(
            events, TUMBLING, agg, technique=technique, shared=shared, horizon=HORIZON
        )
        assert_equivalent(
            got, multi_window_sql(TUMBLING, agg, HORIZON), events=events_pdf
        )

    def test_avg_algebraic_state(self, spark, events, events_pdf, technique, shared):
        agg = get_aggregate("avg")
        ws = [Window(6, 2), Window(12, 6)]
        got = sliced_window_agg(
            events, ws, agg, technique=technique, shared=shared, horizon=HORIZON
        )
        assert_equivalent(got, multi_window_sql(ws, agg, HORIZON), events=events_pdf)


@pytest.mark.parametrize("horizon", [HORIZON, None])
@pytest.mark.parametrize("agg_name", ["min", "sum"])
def test_coprime_slides_vs_oracle(spark, events, events_pdf, agg_name, horizon):
    # S = lcm(7, 9, 11, 13, 16) = 144,144 ticks; the slices are listed
    # over the 60-tick stream only, not over two periods.
    ws = [Window(21, 7), Window(9, 9), Window(22, 11), Window(13, 13), Window(32, 16)]
    agg = get_aggregate(agg_name)
    got = sliced_window_agg(events, ws, agg, horizon=horizon)
    try:
        assert_equivalent(got, multi_window_sql(ws, agg, HORIZON), events=events_pdf)
    finally:
        slice_partials(events, composed_edges(ws, "paired", HORIZON + 32), agg).unpersist()


EDGE_STREAMS = {
    "empty": [],
    "null_v": [(0, 0, 1.5), (3, 0, None), (5, 0, None), (6, 0, None), (9, 0, 2.0)],
    "before_0": [(-5, 0, 100.0), (0, 0, 1.0), (3, 0, 2.0), (7, 0, -1.0), (11, 0, 0.5)],
    "past_last_edge": [(0, 0, 1.0), (3, 0, 2.0), (7, 0, -1.0), (11, 0, 0.5), (500, 0, 3.0)],
}


@pytest.mark.parametrize("stream", sorted(EDGE_STREAMS))
@pytest.mark.parametrize("agg_name", ["min", "max", "sum", "count", "avg"])
def test_shared_paired_edge_streams_vs_oracle(spark, agg_name, stream):
    # Events before 0 belong to no instance and ticks past the slices'
    # last edge to the instances they fall in, as in the baseline plan;
    # an empty stream has no rows, however its horizon is found.
    rows = EDGE_STREAMS[stream]
    ev = spark.createDataFrame(rows, "tick long, key long, v double")
    pdf = pd.DataFrame(rows, columns=["tick", "key", "v"]).astype(
        {"tick": "int64", "key": "int64", "v": "Float64"}
    )
    ws = [Window(4, 4), Window(8, 4)]
    agg = get_aggregate(agg_name)
    got = sliced_window_agg(ev, ws, agg, horizon=None if stream == "empty" else 12)
    try:
        assert_equivalent(got, multi_window_sql(ws, agg, 600), events=pdf)
    finally:
        slice_partials(ev, [4, 8], agg).unpersist()  # the slices SP persisted
