"""The Spark side of the benchmark: inputs, the four executed plans, the
DuckDB oracle check, and the per-layer probes (Spark counters, per-window
operator metering, streaming progress).

Everything here calls the program through its public functions and
times those calls from outside; nothing inside ``repro`` is patched.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd
from py4j.protocol import Py4JJavaError
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.streaming import StreamingQueryListener

from repro.core.aggregates import AggSpec
from repro.core.cost import raw_cost, window_cost
from repro.core.factor import optimize
from repro.core.mincost import MinCostWCG, find_min_cost_wcg
from repro.core.windows import Window, hyperperiod
from repro.engine.executor import execute_baseline, execute_wcg
from repro.engine.metering import raw_assignment_count
from repro.engine.oracle_sql import multi_window_sql
from repro.engine.rollup import assignment_count, rollup
from repro.engine.sliced_exec import slice_partials, sliced_window_agg
from repro.engine.streaming import run_streaming_plan
from repro.engine.streams import event_stream_pdf
from repro.engine.window_agg import partial_window_agg
from repro.slicing.compose import composed_edges

TECHNIQUES = ("bl", "wcg", "wcg_fw", "sp")
OUT_COLS = ["window_id", "win_start", "win_end", "key", "value"]
KEY_COLS = OUT_COLS[:-1]
STREAM_SCHEMA = "tick long, ts timestamp, key long, v double"


@dataclass(frozen=True)
class Shape:
    """One executed workload: a window set, its aggregate, and a steady
    stream of ``eta`` events per tick over ``horizon`` ticks (a whole
    number of hyperperiods) spread over ``n_keys`` keys."""

    windows: tuple[Window, ...]
    agg: str
    horizon: int
    eta: int
    n_keys: int = 8

    @property
    def n_events(self) -> int:
        return self.horizon * self.eta


@dataclass(frozen=True)
class Workload:
    """An executed shape, the sweep family that matches its semantics
    (footnote 5: tumbling sets under SUM, general sets under MIN), and
    the plan its traced run drains through the streaming layer."""

    shape: Shape
    tumbling_sweep: bool
    streamed: str


WORKLOADS = {
    # Example 7 under SUM: WCG-FW adds factor windows, so the three plans
    # differ. Each event is copied once per window, so Spark's stage,
    # shuffle and persist overhead dominates.
    # It streams WCG, a chained rollup: the WCG-FW chains through the
    # factor window <1,1> and take about 60 s to drain, which would bring
    # a traced run close to its time limit.
    "tumbling_sum": Workload(
        Shape(tuple(Window(x, x) for x in (20, 30, 40)), "sum", horizon=2400, eta=25),
        tumbling_sweep=True,
        streamed="wcg",
    ),
    # The HOP chain under MIN: BL copies each event 90 times and the
    # rollups merge overlapping sub-aggregates, so per-row work weighs more.
    "hopping_min": Workload(
        Shape(
            (Window(60, 10), Window(120, 10), Window(240, 10), Window(480, 10)),
            "min", horizon=2400, eta=10,
        ),
        tumbling_sweep=False,
        # Its rewritten plans roll up from hopping parents, which the
        # streaming layer rejects; BL has no rollups.
        streamed="bl",
    ),
}


def make_events(spark: SparkSession, shape: Shape, seed: int) -> tuple[pd.DataFrame, DataFrame]:
    """The seeded input stream, as pandas (for the oracle) and as a
    persisted, materialized Spark DataFrame (for the plans)."""
    pdf = event_stream_pdf(horizon=shape.horizon, eta=shape.eta, n_keys=shape.n_keys, seed=seed)
    ev = spark.createDataFrame(pdf).persist()
    ev.count()
    return pdf, ev


def oracle_answer(pdf: pd.DataFrame, shape: Shape, agg: AggSpec) -> pd.DataFrame:
    """DuckDB's answer to the whole query, sorted for :func:`diff`."""
    con = duckdb.connect()
    try:
        con.register("events", pdf)
        expected = con.execute(multi_window_sql(list(shape.windows), agg, shape.horizon)).fetchdf()
    finally:
        con.close()
    return _canon(expected)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[OUT_COLS].astype({"win_start": "int64", "win_end": "int64", "key": "int64", "value": "float64"})
    return df.sort_values(KEY_COLS, ignore_index=True)


def diff(rows: list, expected: pd.DataFrame) -> str | None:
    """Why ``rows`` differ from the oracle's answer, or ``None``."""
    got = _canon(pd.DataFrame.from_records(rows, columns=OUT_COLS))
    if len(got) != len(expected):
        return f"{len(got)} rows, oracle has {len(expected)}"
    keys_equal = (got[KEY_COLS].to_numpy() == expected[KEY_COLS].to_numpy()).all()
    if not keys_equal:
        return "row keys differ from the oracle"
    if not np.allclose(got["value"], expected["value"], rtol=1e-9, atol=1e-9, equal_nan=True):
        return "values differ from the oracle"
    return None


@dataclass
class Answer:
    """One executed query: timings (s) and the collected rows."""

    total_s: float
    build_s: float
    rows: list


def run_plan(technique: str, ev: DataFrame, shape: Shape, agg: AggSpec) -> Answer:
    """Plan (where the technique has an optimizer step), build, and
    collect every output column of one technique's answer.

    ``collect()`` is the timed action: ``count()`` would let Catalyst
    prune the aggregate out of the plan.
    """
    ws = list(shape.windows)
    res = None
    t0 = time.perf_counter()
    if technique == "bl":
        b0 = time.perf_counter()
        df = execute_baseline(ev, ws, agg)
    elif technique == "wcg":
        m = find_min_cost_wcg(ws, agg, shape.eta)
        b0 = time.perf_counter()
        res = execute_wcg(ev, m, agg)
        df = res.output
    elif technique == "wcg_fw":
        m = optimize(ws, agg, shape.eta)
        b0 = time.perf_counter()
        res = execute_wcg(ev, m, agg)
        df = res.output
    elif technique == "sp":
        b0 = time.perf_counter()
        df = sliced_window_agg(ev, ws, agg, horizon=shape.horizon)
    else:
        raise ValueError(f"unknown technique {technique!r}")
    b1 = time.perf_counter()
    rows = df.collect()
    t1 = time.perf_counter()
    if res is not None:
        res.unpersist()
    if technique == "sp":
        # sliced_window_agg persists its slice partials and returns no
        # handle to them. The cache matches by plan, so unpersisting the
        # same plan releases them; otherwise the next query reuses them.
        slice_partials(ev, sp_edges(shape), agg).unpersist()
    return Answer(t1 - t0, b1 - b0, rows)


def sp_edges(shape: Shape) -> list[int]:
    """The composed paired slice edges that ``sliced_window_agg`` uses."""
    ws = list(shape.windows)
    return composed_edges(ws, "paired", shape.horizon + max(w.r for w in ws))


def bl_forest(shape: Shape, agg: AggSpec) -> MinCostWCG:
    """The BL plan as a forest with no edges (every window from raw)."""
    ws = list(shape.windows)
    R = hyperperiod(ws)
    return MinCostWCG(
        windows=ws,
        parent={w: None for w in ws},
        cost={w: raw_cost(w, R, shape.eta) for w in ws},
        factors=set(),
        R=R,
        eta=shape.eta,
    )


class SparkCounters:
    """Per-query Spark counters, read by job group from the status
    tracker and the driver's status store (both work with the UI off)."""

    def __init__(self, spark: SparkSession):
        self.sc = spark.sparkContext
        jsc = self.sc._jsc.sc()
        self._store = jsc.statusStore()
        self._bus = jsc.listenerBus()

    def drain(self) -> None:
        """Wait until every listener (status store, streaming) has seen
        every event posted so far."""
        self._bus.waitUntilEmpty()

    def read(self, group: str) -> dict[str, float]:
        self.drain()
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        stage_ids: set[int] = set()
        for j in jobs:
            info = tracker.getJobInfo(j)
            if info is not None:
                stage_ids.update(info.stageIds)
        out = {"jobs": len(jobs), "stages": 0, "tasks": 0, "shuffle_bytes": 0, "busy_ms": 0}
        for sid in stage_ids:
            try:
                sd = self._store.lastStageAttempt(sid)
            except Py4JJavaError:
                continue  # skipped: its shuffle output was reused
            if sd.status().toString() != "COMPLETE":
                continue
            out["stages"] += 1
            out["tasks"] += sd.numCompleteTasks()
            out["shuffle_bytes"] += sd.shuffleWriteBytes()
            out["busy_ms"] += sd.executorRunTime()
        return out


def meter_plan(ev: DataFrame, m: MinCostWCG, agg: AggSpec, shape: Shape) -> list[dict]:
    """Per-window operator report of one executed forest.

    Each window's partial is materialized on its own (its parent already
    cached), so ``s`` is that operator's time alone. ``pairs`` are the
    (input row, window instance) assignments the operator makes, counted
    with the public metering functions. ``model`` is the model's ``c_i``
    over the whole stream (period = horizon, so it counts the same
    instances the metering does); rollup inputs are per key, hence
    ``n_keys``.
    """
    partials: dict[Window, DataFrame] = {}
    rows_out: dict[Window, int] = {}
    report = []
    try:
        for w in m.topological():
            p = m.parent[w]
            model = window_cost(w, p, shape.horizon, shape.eta)
            if p is None:
                df, rows_in = partial_window_agg(ev, w, agg), shape.n_events
            else:
                df, rows_in = rollup(partials[p], w, agg), rows_out[p]
                model *= shape.n_keys
            t = time.perf_counter()
            df = df.persist()
            rows_out[w] = df.count()
            s = time.perf_counter() - t
            partials[w] = df
            if p is None:
                pairs = raw_assignment_count(ev, w, shape.horizon)
            else:
                up = partials[p].where(F.col("win_end") <= shape.horizon)
                pairs = assignment_count(up, w, shape.horizon)
            report.append(
                {
                    "window": f"r{w.r}s{w.s}",
                    "kind": "root" if p is None else "rollup",
                    "factor": w in m.factors,
                    "rows_in": rows_in,
                    "pairs": pairs,
                    "rows_out": rows_out[w],
                    "s": s,
                    "model": model,
                }
            )
    finally:
        for df in partials.values():
            df.unpersist()
    return report


def sp_pairs(ev: DataFrame, shape: Shape, agg: AggSpec) -> int:
    """Assignments of the executed shared-paired plan: one per event into
    its slice, plus each window's (slice, instance) pairs."""
    partials = slice_partials(ev, sp_edges(shape), agg).persist()
    try:
        up = partials.where(F.col("win_end") <= shape.horizon)
        return shape.n_events + sum(assignment_count(up, w, shape.horizon) for w in shape.windows)
    finally:
        partials.unpersist()


class ProgressLog(StreamingQueryListener):
    """Collects every streaming query's progress reports."""

    def __init__(self):
        self.started = 0
        self.progress: list = []

    def onQueryStarted(self, event) -> None:
        self.started += 1

    def onQueryProgress(self, event) -> None:
        self.progress.append(event.progress)

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        pass

    def summary(self) -> dict[str, float]:
        """Totals over all queries; state size is each query's peak."""
        peak_rows: dict[str, int] = {}
        peak_bytes: dict[str, int] = {}
        for p in self.progress:
            ops = p.stateOperators
            peak_rows[p.id] = max(peak_rows.get(p.id, 0), sum(op.numRowsTotal for op in ops))
            peak_bytes[p.id] = max(peak_bytes.get(p.id, 0), sum(op.memoryUsedBytes for op in ops))
        dur = lambda key: sum(p.durationMs.get(key, 0) for p in self.progress)  # noqa: E731
        return {
            "queries": self.started,
            "batches": len(self.progress),
            "input_rows": sum(p.numInputRows for p in self.progress),
            "state_rows": sum(peak_rows.values()),
            "state_bytes": sum(peak_bytes.values()),
            "add_batch_ms": dur("addBatch"),
            "planning_ms": dur("queryPlanning"),
            "wal_ms": dur("walCommit"),
        }


def write_stream_input(spark: SparkSession, pdf: pd.DataFrame, shape: Shape, path: str) -> None:
    """The stream as parquet, plus one sentinel event far past the horizon
    so the watermark closes every in-horizon window."""
    sentinel = pd.DataFrame({"tick": [shape.horizon + 10_000], "key": [0], "v": [0.0]})
    sentinel["ts"] = pd.to_datetime(sentinel["tick"], unit="s")
    spark.createDataFrame(pd.concat([pdf, sentinel], ignore_index=True)).select(
        "tick", "ts", "key", "v"
    ).write.parquet(path)


def run_stream(
    spark: SparkSession, counters: SparkCounters, path: str, m: MinCostWCG, agg: AggSpec,
    expected: pd.DataFrame, shape: Shape, prefix: str,
) -> tuple[float, dict[str, float], str | None]:
    """Drain the plan through ``run_streaming_plan``: (seconds from the
    call until every sink has drained, progress summary, diff)."""
    log = ProgressLog()
    spark.streams.addListener(log)
    try:
        t = time.perf_counter()
        sinks = run_streaming_plan(spark, path, STREAM_SCHEMA, m, agg, sink_prefix=prefix)
        drain_s = time.perf_counter() - t
        counters.drain()
    finally:
        spark.streams.removeListener(log)
    rows = []
    for table in sinks.values():
        rows += spark.table(table).where(f"win_end <= {shape.horizon}").collect()
    closed = expected[expected["win_end"] <= shape.horizon].reset_index(drop=True)
    return drain_s, log.summary(), diff(rows, closed)
