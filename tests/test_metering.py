"""Cost-model validation: over one hyperperiod of a steady η-rate,
single-key stream, the (input row, window instance) assignment pairs
that each level of an executed chain counts equal the analytic ``c_i``
exactly."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AGGREGATES, get_aggregate
from repro.core.cost import raw_cost, rollup_cost
from repro.core.factor import algorithm2, optimize
from repro.core.mincost import find_min_cost_wcg
from repro.core.windows import Window, hyperperiod
from repro.engine.executor import execute_wcg, run_chain
from repro.engine.metering import raw_assignment_count
from repro.engine.rollup import assignment_count
from repro.engine.sliced_exec import Slices, slice_partials
from repro.engine.streams import event_stream
from repro.engine.window_agg import window_id
from repro.slicing.compose import composed_edges, edge_classes
from tests.window_sets import window_sets

EX6 = [Window(x, x) for x in (10, 20, 30, 40)]
EX7 = [Window(x, x) for x in (20, 30, 40)]
R = 120  # hyperperiod of both examples
SPAN = 360  # ticks of the property's streams: the largest hyperperiod it draws
MIN = get_aggregate("min")
SUM = get_aggregate("sum")


@pytest.fixture(scope="module", params=[1, 3])
def eta_events(request, spark):
    eta = request.param
    df = event_stream(spark, horizon=R, eta=eta, n_keys=1, seed=5)
    df.persist().count()
    yield eta, df
    df.unpersist()


@pytest.fixture(scope="module")
def steady(spark):
    """A 1-key stream of ``SPAN`` ticks per rate η ∈ {1, 3}."""
    streams = {eta: event_stream(spark, horizon=SPAN, eta=eta, n_keys=1, seed=5) for eta in (1, 3)}
    for df in streams.values():
        df.persist().count()
    yield streams
    for df in streams.values():
        df.unpersist()


def _pairs(res, horizon: int) -> dict[str, int]:
    return {r.window_id: r.pairs for r in res.pairs(horizon).collect()}


def _model(cost: dict[Window, int]) -> dict[str, int]:
    """The model's ``c_i`` by window id, as :func:`_pairs` lists them."""
    return {window_id(w): c for w, c in cost.items()}


class TestRawCounts:
    @pytest.mark.parametrize("w", EX6 + [Window(12, 4), Window(10, 2)])
    def test_direct_agg_processes_n_eta_r(self, spark, eta_events, w):
        eta, events = eta_events
        measured = raw_assignment_count(events, w, R)
        assert measured == raw_cost(w, R, eta)


class TestPlanCounts:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        ws=window_sets(n_max=4, s_max=8, k_max=4).filter(lambda ws: hyperperiod(ws) <= SPAN),
        agg_name=st.sampled_from(sorted(AGGREGATES)),
        eta=st.sampled_from([1, 3]),
    )
    @example(ws=EX6, agg_name="min", eta=1)
    @example(ws=EX7, agg_name="sum", eta=3)
    @example(ws=[Window(8, 2), Window(10, 2)], agg_name="min", eta=3)
    def test_each_level_counts_the_models_pairs(self, spark, steady, ws, agg_name, eta):
        # The streams run past R, so instances that end after it exist
        # and must not count; a carried row must not count again.
        agg, events, period = get_aggregate(agg_name), steady[eta], hyperperiod(ws)
        bl = run_chain(events, dict.fromkeys(ws), set(ws), agg)
        assert _pairs(bl, period) == _model({w: raw_cost(w, period, eta) for w in ws})
        for m in (find_min_cost_wcg(ws, agg, eta=eta), optimize(ws, agg, eta=eta)):
            assert _pairs(execute_wcg(events, m, agg), m.R) == _model(m.cost), m.describe()

    def test_example6_wcg_counts_match_model(self, spark, eta_events):
        eta, events = eta_events
        m = find_min_cost_wcg(EX6, MIN, eta=eta)
        counts = _pairs(execute_wcg(events, m, MIN), R)
        assert counts == _model(m.cost)
        assert sum(counts.values()) == m.total

    def test_example7_factor_plan_counts_match_model(self, spark, eta_events):
        eta, events = eta_events
        m = algorithm2(EX7, SUM, eta=eta)
        assert m.factors
        assert _pairs(execute_wcg(events, m, SUM), R) == _model(m.cost)

    def test_rollup_count_equals_n_times_M(self, spark, eta_events):
        eta, events = eta_events
        m = find_min_cost_wcg(EX6, MIN, eta=eta)
        counts = _pairs(execute_wcg(events, m, MIN), R)
        w1, w2 = Window(10, 10), Window(20, 20)
        assert m.parent[w2] == w1
        assert counts[window_id(w2)] == rollup_cost(w2, w1, R)  # 6·2 = 12

    def test_hopping_chain_counts(self, spark, eta_events):
        eta, events = eta_events
        ws = [Window(8, 2), Window(10, 2)]  # Example 2's coverage pair
        m = find_min_cost_wcg(ws, MIN, eta=eta)
        assert m.parent[Window(10, 2)] == Window(8, 2)
        # meter over the set's own hyperperiod (lcm(8,10) = 40).
        counts = _pairs(execute_wcg(events, m, MIN), m.R)
        assert counts[window_id(Window(10, 2))] == m.cost[Window(10, 2)]

    def test_sp_pairs_equal_the_slice_metering(self, spark, eta_events):
        # Executed SP's forest: its slice set (window id '') takes every
        # event once, and each window's (slice, instance) pairs are those
        # that assignment_count meters over the slice partials.
        eta, events = eta_events
        s = Slices(edge_classes(EX7, "paired"))
        counts = _pairs(run_chain(events, {s: None, **dict.fromkeys(EX7, s)}, set(EX7), SUM), R)
        slices = slice_partials(events, composed_edges(EX7, "paired", R + 40), SUM)
        up = slices.where(f"win_end <= {R}")
        assert counts == {"": eta * R} | {window_id(w): assignment_count(up, w, R) for w in EX7}
