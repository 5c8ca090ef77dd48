"""Evaluation harness: per-figure qualitative shape claims from §5.3.

The paper's Figures 11–15 are log-scale plots of the five techniques'
analytic costs on seeded random window sets. Absolute values depend on
RNG seeds and the unstated s_max/k_max, but §5.3's *observations* are
parameter-robust; each is asserted here against our generated tables.
"""
from pathlib import Path

import pytest

from repro.core.aggregates import get_aggregate
from repro.core.windows import Window
from repro.evalfw.harness import (
    ALL_FIGURES,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    run_experiment,
)
from repro.evalfw.report import geomean_ratios, markdown_table, win_rate
from repro.evalfw.techniques import TECHNIQUE_ORDER, evaluate_techniques


@pytest.fixture(scope="module")
def fig11():
    return figure11()


@pytest.fixture(scope="module")
def fig12():
    return figure12()


@pytest.fixture(scope="module")
def fig13():
    return figure13()


@pytest.fixture(scope="module")
def fig14():
    return figure14()


@pytest.fixture(scope="module")
def fig15():
    return figure15()


class TestEvaluateTechniques:
    def test_example6_values(self):
        ws = [Window(x, x) for x in (10, 20, 30, 40)]
        tc = evaluate_techniques(ws, get_aggregate("sum"), eta=1)
        assert tc.R == 120 and tc.S == 120 and tc.L == 120
        assert tc["BL"] == 480 and tc["WCG"] == 150 and tc["WCG-FW"] == 150

    def test_example7_values(self):
        ws = [Window(x, x) for x in (20, 30, 40)]
        tc = evaluate_techniques(ws, get_aggregate("sum"), eta=1)
        assert tc["BL"] == 360 and tc["WCG"] == 246 and tc["WCG-FW"] == 150

    def test_period_extension(self):
        # R = lcm ranges = 40, S = lcm slides = 4 → L = 40.
        ws = [Window(8, 2), Window(10, 2), Window(40, 4)]
        tc = evaluate_techniques(ws, get_aggregate("min"), eta=1)
        assert tc.L % tc.R == 0 and tc.L % tc.S == 0

    def test_all_techniques_present_and_positive(self):
        ws = [Window(6, 2), Window(12, 4)]
        tc = evaluate_techniques(ws, get_aggregate("min"), eta=10)
        assert set(tc.costs) == set(TECHNIQUE_ORDER)
        assert all(v > 0 for v in tc.costs.values())


class TestRowsStructure:
    def test_ten_rows_each(self, fig11, fig13):
        for rows in fig11.values():
            assert len(rows) == 10
        for rows in fig13.values():
            assert len(rows) == 10

    def test_deterministic(self, fig11):
        again = figure11(etas=(1,))[1]
        assert [r.costs.costs for r in again] == [r.costs.costs for r in fig11[1]]

    def test_markdown_table_renders(self, fig11):
        text = markdown_table(fig11[100], "Fig 11, η=100")
        assert text.count("\n") > 10 and "WCG-FW" in text

    @pytest.mark.parametrize("name", sorted(ALL_FIGURES))
    def test_full_tables_match_experiments_md(self, name, request):
        # Every cell of every panel, so optimizer drift cannot pass as a
        # shape that still holds.
        text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()
        full = text[text.index("### Full tables"):text.index("## 5.")]
        for panel, rows in request.getfixturevalue(name).items():
            label = f"η={panel}" if isinstance(panel, int) else panel
            assert markdown_table(rows, f"{name} ({label})") in full, (name, panel)


class TestFigure11Shapes:
    """§5.3 'Random Window Sets' observations, general windows."""

    def test_bl_worst_overall(self, fig11):
        for eta in (10, 100):
            g = geomean_ratios(fig11[eta])
            assert all(g[t] <= 1.0 for t in ("UP", "SP", "WCG-FW"))

    def test_up_significantly_outperforms_bl(self, fig11):
        # "UP significantly outperforms BL on general windows."
        assert geomean_ratios(fig11[100])["UP"] < 0.5

    def test_sp_improves_over_up_severalfold(self, fig11):
        g = geomean_ratios(fig11[100])
        assert g["SP"] < g["UP"] / 3

    def test_wcg_not_very_effective_on_general_sets(self, fig11):
        # "WCG ... is not very effective over general window sets."
        g = geomean_ratios(fig11[100])
        assert 0.3 < g["WCG"] <= 1.0

    def test_wcg_fw_similar_to_sp(self, fig11):
        # the paper's headline: "WCG-FW exhibits performance similar to
        # SP, presumably the state-of-the-art window slicing technique."
        g = geomean_ratios(fig11[100])
        assert g["WCG-FW"] / g["SP"] < 1.5

    def test_observations_stabilize_with_eta(self, fig11):
        # "observations become more stable as we increase η": the
        # WCG-FW/BL gap keeps widening.
        g1, g10, g100 = (geomean_ratios(fig11[e])["WCG-FW"] for e in (1, 10, 100))
        assert g100 < g10 < g1

    def test_wcg_fw_never_worse_than_wcg(self, fig11):
        for rows in fig11.values():
            assert win_rate(rows, "WCG-FW", "WCG") == 1.0


class TestFigure12Shapes:
    """RandomGen, tumbling-only (partitioned-by) variant."""

    def test_up_same_or_worse_than_bl(self, fig12):
        # "for tumbling windows, [UP] performs the same as or even worse
        # than BL."
        for eta in (10, 100):
            assert geomean_ratios(fig12[eta])["UP"] >= 0.999

    def test_wcg_outperforms_bl_and_up(self, fig12):
        g = geomean_ratios(fig12[100])
        assert g["WCG"] < 1.0 and g["WCG"] < g["UP"]

    def test_wcg_fw_similar_to_sp(self, fig12):
        g = geomean_ratios(fig12[100])
        assert g["WCG-FW"] / g["SP"] < 1.5


class TestFigure13Shapes:
    """ChainGen: coverage chains make WCG shine; factors close the gap."""

    def test_general_wcg_between_up_and_bl_neighborhood(self, fig13):
        g = geomean_ratios(fig13["general"])
        assert g["WCG"] < 1.0

    def test_general_wcg_fw_reaches_sp_level(self, fig13):
        g = geomean_ratios(fig13["general"])
        assert g["WCG-FW"] / g["SP"] < 1.5

    def test_tumbling_wcg_equals_wcg_fw(self, fig13):
        # "WCG performs almost the same as WCG-FW and SP, implying that
        # factor windows are not necessary in this particular case."
        g = geomean_ratios(fig13["tumbling"])
        assert abs(g["WCG"] - g["WCG-FW"]) / g["WCG"] < 0.05
        assert g["WCG"] / g["SP"] < 1.2


class TestFigure14Shapes:
    def test_same_observations_as_chain(self, fig14):
        g = geomean_ratios(fig14["general"])
        assert g["WCG"] < 1.0
        assert g["WCG-FW"] / g["SP"] < 1.5
        gt = geomean_ratios(fig14["tumbling"])
        assert abs(gt["WCG"] - gt["WCG-FW"]) / gt["WCG"] < 0.05


class TestFigure15Shapes:
    """RandomGraphGen: BL and UP worst; WCG-FW ≤ WCG, sometimes = SP."""

    def test_bl_and_up_worst(self, fig15):
        for rows in fig15.values():
            g = geomean_ratios(rows)
            floor = max(g["SP"], g["WCG"], g["WCG-FW"])
            assert g["BL"] >= floor and g["UP"] >= floor * 0.9

    def test_wcg_fw_no_worse_than_wcg(self, fig15):
        for rows in fig15.values():
            assert win_rate(rows, "WCG-FW", "WCG") == 1.0

    def test_wcg_fw_can_reach_sp(self, fig15):
        g = geomean_ratios(fig15["general"])
        assert g["WCG-FW"] / g["SP"] < 1.5


class TestWinRate:
    def test_win_rate_bounds(self, fig11):
        rows = fig11[100]
        assert 0.0 <= win_rate(rows, "SP", "BL") <= 1.0
        assert win_rate(rows, "BL", "BL") == 1.0
