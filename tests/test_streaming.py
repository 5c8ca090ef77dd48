"""Structured Streaming execution of rewritten plans: chained window
aggregations must emit the same rows as the batch engine (modulo the
watermark cutoff) for the paper's examples."""
import pytest
from pyspark.sql.streaming import DataStreamWriter

from repro.core.aggregates import get_aggregate
from repro.core.factor import algorithm2, optimize
from repro.core.mincost import find_min_cost_wcg
from repro.core.windows import Window
from repro.engine.executor import execute_wcg
from repro.engine.streaming import run_streaming_plan
from repro.engine.streams import event_stream
from repro.engine.window_agg import window_id

EX6 = [Window(x, x) for x in (10, 20, 30, 40)]
EX7 = [Window(x, x) for x in (20, 30, 40)]
HORIZON = 120
SUM = get_aggregate("sum")
MIN = get_aggregate("min")
SCHEMA = "tick long, ts timestamp, key long, v double"


@pytest.fixture(scope="module")
def stream_dir(spark, tmp_path_factory):
    """Events written to parquet, with one sentinel event far past the
    horizon so the watermark closes every in-horizon window."""
    path = str(tmp_path_factory.mktemp("stream") / "events")
    ev = event_stream(spark, horizon=HORIZON, eta=2, n_keys=2, seed=3)
    sentinel = spark.createDataFrame(
        [(10_000, 0, 0.0)], "tick long, key long, v double"
    ).selectExpr("tick", "timestamp_seconds(tick) as ts", "key", "v")
    ev.select("tick", "ts", "key", "v").unionByName(sentinel).write.parquet(path)
    return path


def batch_rows(spark, mincost, agg, w):
    ev = event_stream(spark, horizon=HORIZON, eta=2, n_keys=2, seed=3)
    res = execute_wcg(ev, mincost, agg)
    rows = (
        res.output.where(f"window_id = '{window_id(w)}' AND win_end <= {HORIZON}")
        .collect()
    )
    res.unpersist()
    return sorted(map(tuple, rows))


def sink_rows(spark, table):
    return sorted(map(tuple, spark.table(table).where(f"win_end <= {HORIZON}").collect()))


class TestSupportMatrix:
    @pytest.mark.parametrize(
        "plan",
        [
            # W(10,2) rolls up the overlapping instances of W(8,2).
            lambda: find_min_cost_wcg([Window(8, 2), Window(10, 2)], MIN, eta=100),
            # Five levels, three of them from hopping parents, one of
            # those a factor window: W(2,2) → W(6,2) → W(10,2) → W(12,4) → W(20,4).
            lambda: optimize([Window(6, 2), Window(10, 2), Window(20, 4)], MIN, eta=100),
        ],
        ids=["pair", "chain"],
    )
    def test_hopping_parent_streams(self, spark, stream_dir, plan):
        m = plan()
        assert any(p is not None and not p.is_tumbling for p in m.parent.values())
        sinks = run_streaming_plan(
            spark, stream_dir, SCHEMA, m, MIN, sink_prefix=f"hop_{len(m.windows)}"
        )
        assert set(sinks) == set(m.exposed())
        for w, table in sinks.items():
            assert sink_rows(spark, table) == batch_rows(spark, m, MIN, w), f"window {w}"

    def test_session_shuffle_partitions_restored(self, spark, stream_dir):
        key = "spark.sql.shuffle.partitions"
        saved = spark.conf.get(key)
        # A value the streaming queries do not use, so restoring is visible.
        spark.conf.set(key, str(spark.sparkContext.defaultParallelism + 1))
        try:
            m = find_min_cost_wcg([Window(10, 10)], SUM, eta=1)
            run_streaming_plan(spark, stream_dir, SCHEMA, m, SUM, sink_prefix="conf")
            assert spark.conf.get(key) == str(spark.sparkContext.defaultParallelism + 1)
        finally:
            spark.conf.set(key, saved)


    def test_started_queries_stop_when_one_fails(self, spark, stream_dir, monkeypatch):
        # The first query would run until stopped (a processing-time
        # trigger); the second fails to start.
        key = "spark.sql.shuffle.partitions"
        saved = spark.conf.get(key)
        spark.conf.set(key, str(spark.sparkContext.defaultParallelism + 1))
        start, calls = DataStreamWriter.start, []

        def start_once(writer, *args, **kwargs):
            calls.append(writer)
            if len(calls) > 1:
                raise RuntimeError("the second query fails to start")
            return start(writer.trigger(processingTime="1 hour"), *args, **kwargs)

        monkeypatch.setattr(DataStreamWriter, "start", start_once)
        m = find_min_cost_wcg(EX6, SUM, eta=1)
        try:
            with pytest.raises(RuntimeError, match="second query"):
                run_streaming_plan(spark, stream_dir, SCHEMA, m, SUM, sink_prefix="fails")
            assert len(calls) == 2
            assert spark.streams.active == []
            assert spark.conf.get(key) == str(spark.sparkContext.defaultParallelism + 1)
        finally:
            for q in spark.streams.active:
                q.stop()
            spark.conf.set(key, saved)


class TestStreamingMatchesBatch:
    @pytest.mark.parametrize("agg_name", ["sum", "min"])
    def test_example6_chain(self, spark, stream_dir, agg_name):
        agg = get_aggregate(agg_name)
        m = find_min_cost_wcg(EX6, agg, eta=1)
        schema = "tick long, ts timestamp, key long, v double"
        sinks = run_streaming_plan(
            spark, stream_dir, schema, m, agg, sink_prefix=f"ex6_{agg_name}"
        )
        for w, table in sinks.items():
            got = sorted(
                map(
                    tuple,
                    spark.table(table).where(f"win_end <= {HORIZON}").collect(),
                )
            )
            assert got == batch_rows(spark, m, agg, w), f"window {w}"

    def test_example7_factor_window_hidden(self, spark, stream_dir):
        m = algorithm2(EX7, SUM, eta=1)
        assert Window(10, 10) in m.factors
        schema = "tick long, ts timestamp, key long, v double"
        sinks = run_streaming_plan(
            spark, stream_dir, schema, m, SUM, sink_prefix="ex7"
        )
        # only the query's windows are sunk:
        assert set(sinks) == set(EX7)
        for w, table in sinks.items():
            got = sorted(
                map(
                    tuple,
                    spark.table(table).where(f"win_end <= {HORIZON}").collect(),
                )
            )
            assert got == batch_rows(spark, m, SUM, w), f"window {w}"
