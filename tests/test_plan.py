"""§3.3 query rewriting: the min-cost forest is the rewritten plan, for
the paper's examples."""
from repro.core.aggregates import get_aggregate
from repro.core.factor import algorithm2
from repro.core.mincost import find_min_cost_wcg
from repro.core.windows import Window

MIN = get_aggregate("min")
SUM = get_aggregate("sum")
EX6 = [Window(x, x) for x in (10, 20, 30, 40)]
EX7 = [Window(x, x) for x in (20, 30, 40)]


class TestRewritePlanExample6:
    def test_every_window_has_one_input(self):
        # Figure 2(a) right: W1 reads the events, every other window one
        # parent; parents are listed before their children.
        assert find_min_cost_wcg(EX6, MIN, eta=1).describe().splitlines() == [
            "W(10,10) <- events",
            "W(20,20) <- W(10,10)",
            "W(30,30) <- W(10,10)",
            "W(40,40) <- W(20,20)",
        ]


class TestRewritePlanFactorWindows:
    def test_factor_window_hidden_from_union(self):
        m = algorithm2(EX7, SUM, eta=1)
        assert Window(10, 10) in m.factors
        assert Window(10, 10) not in m.exposed()
        # but the children do read from it:
        assert m.children(Window(10, 10)) == [Window(20, 20), Window(30, 30)]

    def test_union_inputs_are_exactly_exposed_windows(self):
        assert algorithm2(EX7, SUM, eta=1).exposed() == EX7


class TestMultiRoot:
    def test_multicast_source_when_several_roots(self):
        ws = [Window(6, 6), Window(10, 10)]  # no coverage between them
        assert find_min_cost_wcg(ws, MIN, eta=1).roots() == ws

    def test_describe_mentions_factor(self):
        text = algorithm2(EX7, SUM, eta=1).describe()
        assert "W(10,10) <- events [factor]" in text.splitlines()
