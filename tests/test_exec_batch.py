"""End-to-end correctness of executed plans on Spark, against the DuckDB
oracle and against each other: baseline vs rewritten (WCG) vs rewritten
with factor windows (WCG-FW)."""
from contextlib import contextmanager

import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from py4j.protocol import Py4JJavaError
from pyspark.errors import PySparkException

from repro.core.aggregates import AGGREGATES, get_aggregate
from repro.core.factor import algorithm2, optimize
from repro.core.mincost import find_min_cost_wcg
from repro.core.wcg import UNIT_WINDOW
from repro.core.windows import Window
from repro.engine.executor import execute_baseline, execute_wcg, run_chain
from repro.engine.oracle_sql import multi_window_sql
from repro.engine.streams import event_stream, event_stream_pdf, lineitem_stream
from repro.engine.window_agg import finalize, partial_window_agg, window_id
from repro.engine.rollup import rollup
from repro.engine.sliced_exec import Slices, slice_partials, sliced_window_agg
from repro.oracle import assert_equivalent
from repro.slicing.compose import composed_edges, edge_classes
from repro.synth_data import lineitem
from repro.workloads.generators import chain_gen, star_gen
from tests.window_sets import window_sets

EX6 = [Window(x, x) for x in (10, 20, 30, 40)]
EX7 = [Window(x, x) for x in (20, 30, 40)]
HOP = [Window(60, 10), Window(120, 10), Window(240, 10), Window(480, 10)]
HORIZON = 120
ADVISORY = "spark.sql.adaptive.advisoryPartitionSizeInBytes"
# One key; null values, one instance with only nulls; events before 0
# (in no instance) and far past the steady ticks.
EDGE_ROWS = [
    (-7, 0, 5.0), (-1, 0, -2.0), (0, 0, 1.5), (3, 0, None), (9, 0, 4.0),
    (11, 0, None), (12, 0, 2.5), (25, 0, None), (26, 0, None), (95, 0, 7.0),
]


@pytest.fixture(scope="module")
def events(spark):
    df = event_stream(spark, horizon=HORIZON, eta=2, n_keys=3, seed=7)
    df.persist().count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def dense_events(spark):
    """Many events per root instance, so root sums round in double."""
    df = event_stream(spark, horizon=480, eta=25, n_keys=4, seed=11)
    df.persist().count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def events_pdf():
    return event_stream_pdf(horizon=HORIZON, eta=2, n_keys=3, seed=7)


class TestDirectWindowAgg:
    @pytest.mark.parametrize("agg_name", ["min", "max", "sum", "count", "avg"])
    def test_single_tumbling_vs_oracle(self, spark, events, events_pdf, agg_name):
        agg = get_aggregate(agg_name)
        w = Window(10, 10)
        got = finalize(partial_window_agg(events, w, agg), w, agg)
        assert_equivalent(
            got, multi_window_sql([w], agg, HORIZON), events=events_pdf
        )

    @pytest.mark.parametrize("agg_name", ["min", "sum", "avg"])
    def test_single_hopping_vs_oracle(self, spark, events, events_pdf, agg_name):
        agg = get_aggregate(agg_name)
        w = Window(12, 4)
        got = finalize(partial_window_agg(events, w, agg), w, agg)
        assert_equivalent(
            got, multi_window_sql([w], agg, HORIZON), events=events_pdf
        )

    @pytest.mark.parametrize("w", [Window(10, 10), Window(12, 4)], ids=str)
    @pytest.mark.parametrize("agg_name", ["min", "max", "sum", "count", "avg"])
    @pytest.mark.parametrize("stream", ["edges", "empty"])
    def test_root_operator_edge_streams_vs_oracle(self, spark, stream, agg_name, w):
        rows = [] if stream == "empty" else EDGE_ROWS
        ev = spark.createDataFrame(rows, "tick long, key long, v double")
        pdf = pd.DataFrame(rows, columns=["tick", "key", "v"]).astype(
            {"tick": "int64", "key": "int64", "v": "Float64"}
        )
        agg = get_aggregate(agg_name)
        got = finalize(partial_window_agg(ev, w, agg), w, agg)
        assert_equivalent(got, multi_window_sql([w], agg, 100), events=pdf)

    def test_no_negative_window_starts(self, spark, events):
        agg = get_aggregate("min")
        w = Window(12, 4)
        got = partial_window_agg(events, w, agg)
        assert got.where("win_start < 0").count() == 0
        # but the instance starting at 0 exists:
        assert got.where("win_start = 0").count() > 0


class TestRollupOperator:
    def test_rollup_equals_direct_tumbling(self, spark, events, events_pdf):
        agg = get_aggregate("sum")
        parent, child = Window(10, 10), Window(20, 20)
        up = partial_window_agg(events, parent, agg)
        got = finalize(rollup(up, child, agg), child, agg)
        assert_equivalent(
            got, multi_window_sql([child], agg, HORIZON), events=events_pdf
        )

    def test_rollup_equals_direct_covered_hopping(self, spark, events, events_pdf):
        # W(10,2) ≤ W(8,2) (the paper's Example 2) with MIN: overlapping
        # covering sets are sound (Theorem 6).
        agg = get_aggregate("min")
        parent, child = Window(8, 2), Window(10, 2)
        up = partial_window_agg(events, parent, agg)
        got = finalize(rollup(up, child, agg), child, agg)
        assert_equivalent(
            got, multi_window_sql([child], agg, HORIZON), events=events_pdf
        )

    def test_rollup_hopping_child_from_tumbling_parent(
        self, spark, events, events_pdf
    ):
        agg = get_aggregate("avg")
        parent, child = Window(4, 4), Window(12, 4)
        up = partial_window_agg(events, parent, agg)
        got = finalize(rollup(up, child, agg), child, agg)
        assert_equivalent(
            got, multi_window_sql([child], agg, HORIZON), events=events_pdf
        )

    def test_chained_rollup(self, spark, events, events_pdf):
        agg = get_aggregate("max")
        w1, w2, w4 = Window(10, 10), Window(20, 20), Window(40, 40)
        up1 = partial_window_agg(events, w1, agg)
        up2 = rollup(up1, w2, agg)
        got = finalize(rollup(up2, w4, agg), w4, agg)
        assert_equivalent(
            got, multi_window_sql([w4], agg, HORIZON), events=events_pdf
        )


class TestBaselinePlan:
    @pytest.mark.parametrize("agg_name", ["min", "sum"])
    def test_example6_vs_oracle(self, spark, events, events_pdf, agg_name):
        agg = get_aggregate(agg_name)
        got = execute_baseline(events, EX6, agg)
        assert_equivalent(
            got, multi_window_sql(EX6, agg, HORIZON), events=events_pdf
        )


class TestRewrittenPlans:
    @pytest.mark.parametrize("agg_name", ["min", "max", "sum", "count", "avg"])
    def test_example6_wcg_vs_oracle(self, spark, events, events_pdf, agg_name):
        agg = get_aggregate(agg_name)
        m = find_min_cost_wcg(EX6, agg, eta=1)
        res = execute_wcg(events, m, agg)
        try:
            assert_equivalent(
                res.output, multi_window_sql(EX6, agg, HORIZON), events=events_pdf
            )
        finally:
            res.unpersist()

    @pytest.mark.parametrize("agg_name", ["min", "sum", "avg"])
    def test_example7_factor_plan_vs_oracle(self, spark, events, events_pdf, agg_name):
        # The factor window W(10,10) participates but is not exposed.
        agg = get_aggregate(agg_name)
        m = algorithm2(EX7, agg, eta=1)
        assert Window(10, 10) in m.factors
        res = execute_wcg(events, m, agg)
        try:
            out = res.output
            ids = {r.window_id for r in out.select("window_id").distinct().collect()}
            assert ids == {window_id(w) for w in EX7}
            assert_equivalent(
                out, multi_window_sql(EX7, agg, HORIZON), events=events_pdf
            )
        finally:
            res.unpersist()

    @pytest.mark.parametrize("agg_name", ["min", "max", "sum", "count", "avg"])
    @pytest.mark.parametrize("stream", ["steady", "edges"])
    def test_carried_rows_equal_their_level_bit_for_bit(self, spark, events, stream, agg_name):
        # Example 6's WCG computes W(10,10) at level 0 and W(30,30) at
        # level 1 and carries both to the last level, W(40,40)'s: each
        # carried row is a group of one, which must merge to itself.
        agg = get_aggregate(agg_name)
        if stream == "edges":
            events = spark.createDataFrame(EDGE_ROWS, "tick long, key long, v double")
        # Each is compared with the chain of its ancestor path, in which
        # it is the leaf and nothing is carried.
        m = find_min_cost_wcg(EX6, agg, eta=1)
        last = max(_depth(m, w) for w in m.windows)
        carried = [w for w in m.exposed() if _depth(m, w) < last]
        assert carried
        out = execute_wcg(events, m, agg).output
        for w in carried:
            path, a = {}, w
            while a is not None:
                path[a], a = m.parent[a], m.parent[a]
            own = run_chain(events, path, {w}, agg).output.collect()
            got = out.where(f"window_id = '{window_id(w)}'").collect()
            assert own
            assert sorted(map(repr, got)) == sorted(map(repr, own)), w

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("agg_name", ["min", "sum"])
    def test_random_chain_plans_match_baseline(
        self, spark, events, events_pdf, seed, agg_name
    ):
        agg = get_aggregate(agg_name)
        tumbling = agg_name == "sum"
        ws = chain_gen(n=4, s_max=6, k_max=3, seed=seed, tumbling=tumbling)
        m = optimize(ws, agg, eta=10)
        res = execute_wcg(events, m, agg)
        try:
            assert_equivalent(
                res.output, multi_window_sql(ws, agg, HORIZON), events=events_pdf
            )
        finally:
            res.unpersist()

    @pytest.mark.parametrize("seed", range(2))
    def test_star_plan_min_vs_oracle(self, spark, events, events_pdf, seed):
        agg = get_aggregate("min")
        ws = star_gen(n=4, s_max=8, k_max=3, seed=seed)
        m = optimize(ws, agg, eta=10)
        res = execute_wcg(events, m, agg)
        try:
            assert_equivalent(
                res.output, multi_window_sql(ws, agg, HORIZON), events=events_pdf
            )
        finally:
            res.unpersist()


class TestExecutedPlansProperty:
    @settings(max_examples=45, deadline=None, derandomize=True)
    @given(
        ws=window_sets(n_max=4, s_max=8, k_max=4),
        agg_name=st.sampled_from(sorted(AGGREGATES)),
        eta=st.sampled_from([1, 10, 100]),
    )
    def test_bl_wcg_fw_and_sp_equal_the_oracle(self, spark, events, events_pdf, ws, agg_name, eta):
        agg = get_aggregate(agg_name)
        expected = multi_window_sql(ws, agg, HORIZON)
        for got in (
            execute_baseline(events, ws, agg),
            execute_wcg(events, optimize(ws, agg, eta=eta), agg).output,
            sliced_window_agg(events, ws, agg),
        ):
            assert_equivalent(got, expected, events=events_pdf)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        ws=window_sets(n_max=4, s_max=8, k_max=4),
        agg_name=st.sampled_from(["sum", "avg"]),
        eta=st.sampled_from([1, 10, 100]),
    )
    @example(ws=EX7, agg_name="sum", eta=25)
    @example(ws=EX7, agg_name="avg", eta=25)
    def test_answers_depend_only_on_the_roots(self, spark, dense_events, ws, agg_name, eta):
        # WCG-FW's forest and the same forest with every non-root reading
        # its root ancestor merge the same root partials in different
        # groupings: exact merges return the same bits.
        agg = get_aggregate(agg_name)
        m = optimize(ws, agg, eta=eta)
        got = execute_wcg(dense_events, m, agg).output.collect()
        flat = run_chain(dense_events, _flattened(m), set(m.exposed()), agg).output.collect()
        assert sorted(map(repr, got)) == sorted(map(repr, flat))


class TestShuffleLayout:
    """Every test input here fits one task, so the plans above run with no
    exchange. These run BL, WCG, WCG-FW and SP over the key shuffle too,
    with Spark's target bytes per task lowered below their root level's."""

    @pytest.mark.parametrize("windows", [EX7, HOP], ids=["ex7", "hop"])
    @pytest.mark.parametrize("plan", ["bl", "wcg", "wcg_fw", "sp"])
    def test_plans_equal_the_oracle_over_the_key_shuffle(
        self, spark, events, events_pdf, plan, windows
    ):
        conf = (spark.conf.getAll.get(ADVISORY), spark.conf.get(ADVISORY))
        for agg_name in sorted(AGGREGATES):
            agg = get_aggregate(agg_name)
            one_task = _chain(events, plan, windows, agg)
            with _advisory(spark, "1b"):
                shuffled = _chain(events, plan, windows, agg)
            assert (_key_shuffles(one_task.output), _key_shuffles(shuffled.output)) == (0, 1)
            expected = multi_window_sql(windows, agg, HORIZON)
            assert_equivalent(shuffled.output, expected, events=events_pdf)
            pairs = [sorted(r.pairs(HORIZON).collect()) for r in (one_task, shuffled)]
            assert pairs[0] == pairs[1]
        assert (spark.conf.getAll.get(ADVISORY), spark.conf.get(ADVISORY)) == conf


class TestSumDomain:
    """SUM and AVG merge an exact ``decimal(38, 18)`` sum: every sum must
    be finite and below 10^20 in magnitude, and one outside that raises in
    BL and in a plan that merges alike. ``W(20,20)`` rolls up ``W(10,10)``."""

    WINDOWS = [Window(10, 10), Window(20, 20)]

    def _bl_and_wcg(self, spark, rows, agg_name):
        ev = spark.createDataFrame(rows, "tick long, key long, v double")
        agg = get_aggregate(agg_name)
        m = find_min_cost_wcg(self.WINDOWS, agg)
        assert m.parent[Window(20, 20)] == Window(10, 10)
        return execute_baseline(ev, self.WINDOWS, agg), execute_wcg(ev, m, agg).output

    @pytest.mark.parametrize("agg_name", ["sum", "avg"])
    def test_sums_below_1e20_are_answered_alike(self, spark, agg_name):
        rows = [(0, 0, 6e19), (12, 0, 3.5e19), (13, 0, 2.5e18)]
        bl, wcg = (df.collect() for df in self._bl_and_wcg(spark, rows, agg_name))
        assert sorted(map(repr, bl)) == sorted(map(repr, wcg))
        total = {r.window_id: r.value for r in bl if r.win_start == 0}["20/20"]
        assert total == (9.75e19 if agg_name == "sum" else 9.75e19 / 3)

    @pytest.mark.parametrize("agg_name", ["sum", "avg"])
    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 0, 6e19), (12, 0, 6e19)],
            [(t, 0, float("nan") if t == 5 else 1.0) for t in range(20)],
            [(t, 0, float("-inf") if t == 15 else 1.0) for t in range(20)],
        ],
        ids=["1.2e20", "nan", "-inf"],
    )
    def test_sums_outside_the_domain_raise_in_bl_and_wcg(self, spark, rows, agg_name):
        # 1.2e20: BL's root [0, 20) and WCG's merge of [0, 10) and
        # [10, 20) both reach it. A NaN or an infinity raises at every root
        # instance that holds it: cast to the decimal state it would be
        # NULL, which a merge skips, so [0, 20) would differ by plan.
        raised = "finite sums below 1e20|ARITHMETIC_OVERFLOW"
        for df in self._bl_and_wcg(spark, rows, agg_name):
            with pytest.raises(PySparkException, match=raised):
                df.collect()


def _flattened(m) -> dict:
    """``m``'s forest with every non-root reading its root ancestor;
    factor windows left without children are dropped."""
    def root(w):
        return w if m.parent[w] is None else root(m.parent[w])

    parent = {w: None if m.parent[w] is None else root(w) for w in m.windows}
    used = set(parent.values())
    return {w: p for w, p in parent.items() if w not in m.factors or w in used}


def _shuffle_write_records(spark, group: str) -> list[int]:
    """Records written by each shuffle the job group ran; a reused or
    skipped exchange runs no stage and is not listed."""
    jsc = spark.sparkContext._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    tracker = spark.sparkContext.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stage_ids = {s for j in jobs for s in tracker.getJobInfo(j).stageIds}
    out = []
    for sid in sorted(stage_ids):
        try:
            sd = jsc.statusStore().lastStageAttempt(sid)
        except Py4JJavaError:
            continue  # never attempted: its shuffle output was reused
        if sd.status().toString() == "COMPLETE" and sd.shuffleWriteRecords() > 0:
            out.append(sd.shuffleWriteRecords())
    return out


def _depth(m, w) -> int:
    return 0 if m.parent[w] is None else 1 + _depth(m, m.parent[w])


def _plan(events, plan: str, windows, agg):
    """The output of one plan over ``windows`` and the number of levels
    its forest has: one for BL, two for SP (slices, then windows)."""
    if plan == "bl":
        return execute_baseline(events, windows, agg), 1
    if plan == "sp":
        return sliced_window_agg(events, windows, agg), 2
    m = (find_min_cost_wcg if plan == "wcg" else optimize)(windows, agg, eta=1)
    return execute_wcg(events, m, agg).output, 1 + max(_depth(m, w) for w in m.windows)


def _chain(events, plan: str, windows, agg):
    """The :func:`run_chain` result of one plan's forest: BL's with no
    edges, SP's rooted at its slice set, or the optimizer's."""
    if plan == "bl":
        return run_chain(events, dict.fromkeys(windows), set(windows), agg)
    if plan == "sp":
        s = Slices(edge_classes(windows, "paired"))
        return run_chain(events, {s: None, **dict.fromkeys(windows, s)}, set(windows), agg)
    m = (find_min_cost_wcg if plan == "wcg" else optimize)(windows, agg, eta=1)
    return execute_wcg(events, m, agg)


def _final_plan(df) -> list[str]:
    """The lines of ``df``'s executed physical plan (the final one, once
    adaptive execution has run it)."""
    text = df._jdf.queryExecution().executedPlan().toString()
    return text.split("== Initial Plan ==")[0].splitlines()


@contextmanager
def _advisory(spark, size: str):
    """Spark's target bytes per task set to ``size`` inside the block, and
    the session's own setting (or its default) restored after it."""
    was = spark.conf.getAll.get(ADVISORY)
    spark.conf.set(ADVISORY, size)
    try:
        yield
    finally:
        if was is None:
            spark.conf.unset(ADVISORY)
        else:
            spark.conf.set(ADVISORY, was)


def _joins(df) -> list[str]:
    """The lines of ``df``'s executed plan that join."""
    return [line for line in _final_plan(df) if "Join" in line]


def _key_shuffles(df) -> int:
    """The exchanges by key in ``df``'s executed plan."""
    return sum("Exchange hashpartitioning(key" in line for line in _final_plan(df))


def _collect_in_group(spark, df, group: str) -> None:
    spark.sparkContext.setJobGroup(group, group)
    try:
        df.collect()
    finally:
        spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)


def _assert_layouts(spark, events, build, group: str) -> None:
    """The plan that ``build()`` returns with the number of its forest's
    levels, collected in the default session, runs one Spark job that
    shuffles nothing; built with Spark's target bytes per task lowered
    below its root level's, it shuffles every event once and nothing
    else. Neither caches an RDD or joins, and each runs one aggregate per
    level."""
    jsc = spark.sparkContext._jsc.sc()
    cached_before = {i.id() for i in jsc.getRDDStorageInfo()}
    df, levels = build()
    _collect_in_group(spark, df, f"{group}-one-task")
    assert _shuffle_write_records(spark, f"{group}-one-task") == []
    assert len(spark.sparkContext.statusTracker().getJobIdsForGroup(f"{group}-one-task")) == 1
    assert _key_shuffles(df) == 0
    assert not _joins(df)
    outputs = [_final_aggregates(df)]
    with _advisory(spark, "1b"):
        df, _ = build()
    _collect_in_group(spark, df, f"{group}-shuffle")
    assert _shuffle_write_records(spark, f"{group}-shuffle") == [events.count()]
    assert _key_shuffles(df) == 1
    assert not _joins(df)
    outputs.append(_final_aggregates(df))
    assert {i.id() for i in jsc.getRDDStorageInfo()} <= cached_before
    for aggregates in outputs:
        assert len(aggregates) == levels, "\n".join(aggregates)


def _final_aggregates(df) -> list[str]:
    """Each groupBy plans a partial and a final aggregate with no exchange
    between them: the final ones."""
    return [
        line for line in _final_plan(df)
        if "Aggregate(keys=" in line and "functions=[partial_" not in line
    ]


class TestPlanShape:
    def test_example7_factor_plan_shuffles_events_once(self, spark, events):
        agg = get_aggregate("sum")
        m = optimize(EX7, agg, eta=1)
        assert m.factors and any(len(m.children(w)) > 1 for w in m.windows)
        _assert_layouts(spark, events, lambda: _plan(events, "wcg_fw", EX7, agg), "ex7-plan-shape")

    def test_example7_at_eta_25_runs_no_unit_root_level(self, spark, events):
        # The benchmark's tumbling_sum plan: W(10,10) from raw, then
        # W(20,20) and W(30,30), then W(40,40). S would only add a level.
        agg = get_aggregate("sum")
        m = optimize(EX7, agg, eta=25)
        assert UNIT_WINDOW not in m.windows
        assert 1 + max(_depth(m, w) for w in m.windows) == 3
        _assert_layouts(
            spark, events, lambda: (execute_wcg(events, m, agg).output, 3), "ex7-eta25-plan-shape"
        )

    def test_shared_paired_slicing_shuffles_events_once(self, spark, events):
        agg = get_aggregate("sum")
        _assert_layouts(spark, events, lambda: _plan(events, "sp", EX7, agg), "sp-plan-shape")

    @pytest.mark.parametrize(
        "plan, windows, agg_name",
        [("bl", EX7, "sum"), ("wcg", EX7, "sum")]
        + [(p, HOP, "min") for p in ("bl", "wcg", "wcg_fw", "sp")],
        ids=["bl-ex7", "wcg-ex7", "bl-hop", "wcg-hop", "wcg_fw-hop", "sp-hop"],
    )
    def test_plan_shuffles_events_once_per_level_aggregate(
        self, spark, events, request, plan, windows, agg_name
    ):
        agg = get_aggregate(agg_name)
        _assert_layouts(spark, events, lambda: _plan(events, plan, windows, agg), request.node.name)

    def test_layout_follows_the_root_levels_bytes(self, spark, events):
        # HOP's BL assigns each event to Σ r/s = 90 root instances; its
        # WCG-FW roots far fewer. A target between the two root levels'
        # bytes keeps BL's exchange and runs WCG-FW as one task.
        agg = get_aggregate("min")
        fw_pairs = sum(w.r / w.s for w in optimize(HOP, agg, eta=1).roots())
        assert fw_pairs < 45
        size = events._jdf.queryExecution().optimizedPlan().stats().sizeInBytes()
        with _advisory(spark, f"{size * 45}b"):
            bl, _ = _plan(events, "bl", HOP, agg)
            fw, _ = _plan(events, "wcg_fw", HOP, agg)
        assert _key_shuffles(bl) == 1
        assert _key_shuffles(fw) == 0

    @pytest.mark.parametrize("source", ["rdd", "pandas"])
    def test_input_with_no_size_estimate_keeps_the_exchange(self, spark, source):
        # Only a persisted, materialised input is sized exactly: an RDD and
        # an unpersisted pandas input (a scan over Arrow batches) are not.
        if source == "rdd":
            ev = spark.createDataFrame(
                spark.sparkContext.parallelize(EDGE_ROWS), "tick long, key long, v double"
            )
        else:
            ev = event_stream(spark, horizon=HORIZON, eta=2, n_keys=3, seed=7)
        default = spark._jsparkSession.sessionState().conf().defaultSizeInBytes()
        assert ev._jdf.queryExecution().optimizedPlan().stats().sizeInBytes() == default
        df, _ = _plan(ev, "wcg_fw", EX7, get_aggregate("sum"))
        assert _key_shuffles(df) == 1

    @pytest.mark.parametrize("windows", [EX7, HOP], ids=["ex7", "hop"])
    @pytest.mark.parametrize("plan", ["bl", "wcg", "wcg_fw", "sp"])
    def test_assignment_has_no_lambda(self, spark, events, plan, windows):
        # A higher-order lambda (transform(…, x -> …)) is interpreted row
        # by row: building the codes with one made BL on the HOP chain
        # about 1.5× slower.
        agg = get_aggregate("sum" if windows is EX7 else "min")
        df, _ = _plan(events, plan, windows, agg)
        generates = [line for line in _final_plan(df) if "Generate " in line]
        assert generates
        assert not [g for g in generates if "lambdafunction" in g.lower()]

    @pytest.mark.parametrize("windows", [EX7, HOP], ids=["ex7", "hop"])
    @pytest.mark.parametrize("plan", ["bl", "wcg", "wcg_fw", "sp"])
    def test_count_runs_each_level_once(self, spark, events, plan, windows):
        # The metering count and the answer come from one level builder:
        # the count's executed plan explodes each level once, as the
        # answer's does, rather than rebuilding the levels below each one.
        agg = get_aggregate("sum" if windows is EX7 else "min")
        res = _chain(events, plan, windows, agg)
        generates = []
        for df in (res.output, res.pairs(HORIZON)):
            df.collect()
            generates.append(sum("Generate " in line for line in _final_plan(df)))
        assert generates[0] == generates[1]

    @pytest.mark.parametrize("agg_name", sorted(AGGREGATES))
    @pytest.mark.parametrize("plan", ["bl", "wcg", "wcg_fw", "sp"])
    def test_merges_are_code_generated(self, spark, events, plan, agg_name):
        # Every aggregate of every plan is a code-generated HashAggregate:
        # an ObjectHashAggregate (e.g. over collect_list) runs outside
        # whole-stage code generation, and a lambda is interpreted.
        df, _ = _plan(events, plan, EX7, get_aggregate(agg_name))
        df.collect()
        lines = _final_plan(df)
        assert [line for line in lines if "HashAggregate" in line]
        assert not [line for line in lines if "ObjectHashAggregate" in line]
        assert not [line for line in lines if "lambdafunction" in line.lower()]

    @pytest.mark.parametrize(
        "plan", ["bl", "wcg", "wcg_fw", "sp", "bl-pairs", "wcg-pairs", "wcg_fw-pairs", "sp-pairs"]
    )
    def test_plan_is_one_statement_and_leaves_no_view(self, spark, events, monkeypatch, plan):
        # Each plan, and each chain's metering count, is analysed once,
        # and the temp view that binds the events to the statement is
        # gone once it is.
        views = spark.catalog.listTables()
        plan, _, pairs = plan.partition("-")
        res = _chain(events, plan, HOP, get_aggregate("min")) if pairs else None
        calls = []
        sql = type(spark).sql
        monkeypatch.setattr(type(spark), "sql", lambda *a, **kw: calls.append(a) or sql(*a, **kw))
        df = res.pairs(HORIZON) if pairs else _plan(events, plan, HOP, get_aggregate("min"))[0]
        assert len(calls) == 1
        df.collect()
        assert spark.catalog.listTables() == views

    @pytest.mark.parametrize("horizon", [60, 600])
    def test_callers_edges_release_sp_cache(self, spark, horizon):
        # SP caches nothing over a stream shorter or longer than S = 60,
        # and a caller that unpersists the slices by its own listed edges
        # releases nothing else.
        ev = event_stream(spark, horizon=horizon, eta=1, n_keys=2, seed=3)
        agg = get_aggregate("sum")
        jsc = spark.sparkContext._jsc.sc()
        cached_before = {i.id() for i in jsc.getRDDStorageInfo()}
        sliced_window_agg(ev, EX7, agg).collect()
        assert {i.id() for i in jsc.getRDDStorageInfo()} == cached_before
        slice_partials(ev, composed_edges(EX7, "paired", horizon + 40), agg).unpersist()
        assert {i.id() for i in jsc.getRDDStorageInfo()} == cached_before

    @pytest.mark.parametrize("plan", ["bl", "wcg_fw", "sp"])
    def test_plans_keep_the_callers_cache(self, spark, plan):
        ev = event_stream(spark, horizon=60, eta=1, n_keys=2, seed=3).persist()
        try:
            ev.count()
            level = ev.storageLevel
            agg = get_aggregate("sum")
            if plan == "bl":
                execute_baseline(ev, EX7, agg).collect()
            elif plan == "wcg_fw":
                res = execute_wcg(ev, optimize(EX7, agg, eta=1), agg)
                res.output.collect()
                res.unpersist()
            else:
                sliced_window_agg(ev, EX7, agg).collect()
                slice_partials(ev, composed_edges(EX7, "paired", 100), agg).unpersist()
            assert ev.storageLevel == level
            scan = ev.groupBy("key").count()._jdf.queryExecution().executedPlan().toString()
            assert "InMemoryTableScan" in scan
        finally:
            ev.unpersist()


def _holds_rows_inline(df) -> bool:
    """Whether ``df``'s analysed plan carries an input's rows in a
    ``LocalRelation`` node."""
    return "LocalRelation" in df._jdf.queryExecution().analyzed().toString()


class TestInputForm:
    """Under the session defaults a pandas input is a scan over Arrow
    batches, so no statement's plan carries its rows. The persisted
    ``events`` fixture still takes the one-task layout: every
    ``_assert_layouts`` test checks it."""

    def test_pandas_inputs_hold_no_rows_inline(self, spark):
        assert not _holds_rows_inline(event_stream(spark, horizon=60, eta=2, n_keys=2, seed=3))
        assert not _holds_rows_inline(lineitem(spark, sf=0.002))

    @pytest.mark.parametrize("plan", ["bl", "wcg_fw", "sp"])
    def test_plans_over_the_persisted_input_hold_no_rows_inline(self, spark, events, plan):
        df, _ = _plan(events, plan, EX7, get_aggregate("sum"))
        assert not _holds_rows_inline(df)


class TestLineitemStream:
    def test_wcg_plan_on_tpch_lite(self, spark):
        # Realistic values: lineitem as an event stream (tick = days).
        agg = get_aggregate("min")
        ws = [Window(7, 7), Window(14, 14), Window(28, 28)]
        ev = lineitem_stream(spark, sf=0.002).persist()
        try:
            horizon = ev.agg({"tick": "max"}).collect()[0][0] + 1
            m = find_min_cost_wcg(ws, agg, eta=1)
            res = execute_wcg(ev, m, agg)
            base = execute_baseline(ev, ws, agg)
            assert_equivalent(
                res.output,
                multi_window_sql(ws, agg, int(horizon), events="events"),
                events=ev.select("tick", "key", "v"),
            )
            assert sorted(map(tuple, res.output.collect())) == sorted(
                map(tuple, base.collect())
            )
            res.unpersist()
        finally:
            ev.unpersist()
