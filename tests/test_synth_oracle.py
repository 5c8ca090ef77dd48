"""Smoke tests for the provided substrate (synth_data, oracle) and the
engine's stream generators."""
import pandas as pd
import pytest

from repro import synth_data
from repro.engine.streams import event_stream, event_stream_pdf, lineitem_stream
from repro.oracle import assert_equivalent


class TestTpchLite:
    def test_lineitem_shape(self, spark):
        df = synth_data.lineitem(spark, sf=0.001)
        assert df.count() == 6000
        assert "l_extendedprice" in df.columns

    def test_deterministic_in_seed(self, spark):
        a = synth_data.lineitem(spark, sf=0.0005, seed=3).toPandas()
        b = synth_data.lineitem(spark, sf=0.0005, seed=3).toPandas()
        pd.testing.assert_frame_equal(a, b)

    def test_oracle_roundtrip(self, spark):
        li = synth_data.lineitem(spark, sf=0.001)
        got = li.groupBy("l_returnflag").count().withColumnRenamed("count", "n")
        assert_equivalent(
            got,
            "SELECT l_returnflag, count(*)::BIGINT AS n FROM li GROUP BY l_returnflag",
            li=li,
        )

    def test_oracle_catches_wrong_result(self, spark):
        li = synth_data.lineitem(spark, sf=0.001)
        wrong = li.groupBy("l_returnflag").count().withColumnRenamed("count", "n")
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT l_returnflag, (count(*) + 1)::BIGINT AS n "
                "FROM li GROUP BY l_returnflag",
                li=li,
            )


class TestEventStream:
    def test_steady_rate(self, spark):
        pdf = event_stream_pdf(horizon=50, eta=3)
        assert len(pdf) == 150
        assert (pdf.groupby("tick").size() == 3).all()

    def test_spark_matches_pandas(self, spark):
        df = event_stream(spark, horizon=30, eta=2, seed=9)
        pdf = event_stream_pdf(horizon=30, eta=2, seed=9)
        got = df.orderBy("tick", "key", "v").toPandas()
        pd.testing.assert_frame_equal(
            got[["tick", "key", "v"]].reset_index(drop=True),
            pdf.sort_values(["tick", "key", "v"])[["tick", "key", "v"]].reset_index(
                drop=True
            ),
        )

    def test_ts_is_tick_seconds(self, spark):
        row = event_stream(spark, horizon=5, eta=1).selectExpr(
            "max(unix_timestamp(ts) - tick) AS d"
        ).collect()[0]
        assert row.d == 0

    def test_lineitem_stream_schema(self, spark):
        df = lineitem_stream(spark, sf=0.001)
        assert set(df.columns) == {"tick", "ts", "key", "v"}
        assert df.where("tick < 0").count() == 0
