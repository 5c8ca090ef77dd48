"""Table 1 (slicing cost formulas) validated against explicit slice
simulation, plus composed-edge counting (CRT inclusion–exclusion over
the reduced residue classes vs positions listed from each window's
definition)."""
import math

import pytest
from hypothesis import given, settings

from repro.core.windows import Window
from repro.slicing import paired, paned
from repro.slicing.compose import (
    edge_classes,
    composed_edge_count,
    composed_edges,
    slide_period,
)
from repro.slicing.cost import (
    shared_paired,
    shared_paned,
    table1,
    unshared_paired,
    unshared_paned,
)
from repro.workloads.generators import random_gen
from tests.window_sets import window_sets

GENERAL = [Window(12, 4), Window(10, 2), Window(6, 6)]
TUMBLING = [Window(4, 4), Window(6, 6), Window(12, 12)]


class TestPanedSlices:
    def test_pane_size_gcd(self):
        assert paned.pane_size(Window(12, 8)) == 4
        assert paned.pane_size(Window(10, 10)) == 10

    def test_panes_per_period(self):
        # One window's composed edges per period are its panes.
        assert composed_edge_count([Window(12, 8)], "paned") == 2
        assert composed_edge_count([Window(10, 10)], "paned") == 1

    def test_panes_per_window(self):
        assert paned.panes_per_window(Window(12, 8)) == 3

    def test_edges(self):
        assert edge_classes([Window(12, 8)], "paned") == [(0, 4)]


class TestPairedSlices:
    def test_general_pair(self):
        # W(12, 8): instances start at residue 0 and end at 12 mod 8 = 4.
        assert edge_classes([Window(12, 8)], "paired") == [(0, 8), (4, 8)]

    def test_degenerate_single_slice(self):
        assert edge_classes([Window(12, 4)], "paired") == [(0, 4)]
        assert edge_classes([Window(10, 10)], "paired") == [(0, 10)]

    def test_at_most_two_slices_never_more_than_paned(self):
        # "paired windows can never be worse than paned" (slice count).
        for w in GENERAL + TUMBLING + [Window(12, 8), Window(7, 3), Window(9, 6)]:
            paired_e = composed_edge_count([w], "paired")
            assert paired_e <= min(2, composed_edge_count([w], "paned"))

    def test_table1_formula_vs_actual(self):
        # ⌈2r/s⌉ is the literal Table-1 count; the actual need is r/s
        # when r % s == 0 (degenerate single slice per period).
        w = Window(12, 4)
        assert paired.table1_slices_per_window(w) == 6
        assert paired.slices_per_window(w) == 3
        w2 = Window(12, 8)
        assert paired.table1_slices_per_window(w2) == 3
        assert paired.slices_per_window(w2) == 3


class TestComposedEdges:
    @pytest.mark.parametrize("technique", ["paned", "paired"])
    @pytest.mark.parametrize("ws", [GENERAL, TUMBLING])
    def test_explicit_matches_crt(self, technique, ws):
        S = slide_period(ws)
        assert len(composed_edges(ws, technique, S)) == composed_edge_count(ws, technique)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("technique", ["paned", "paired"])
    def test_explicit_matches_crt_random(self, seed, technique):
        ws = random_gen(n=4, s_max=10, k_max=5, seed=seed)
        S = slide_period(ws)
        assert len(composed_edges(ws, technique, S)) == composed_edge_count(ws, technique)

    def test_count_matches_edge_list(self):
        ws = GENERAL
        S = slide_period(ws)
        edges = composed_edges(ws, "paned", S)
        # positions in (0, S] ↔ residues in [0, S): same cardinality.
        assert len(edges) == composed_edge_count(ws, "paned")

    def test_single_tumbling_window(self):
        w = [Window(10, 10)]
        assert composed_edge_count(w, "paned") == 1
        assert composed_edge_count(w, "paired") == 1

    # s_max = 12 keeps S = lcm(slides) ≤ lcm(1, …, 12) = 27,720.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(window_sets(n_max=6, s_max=12, k_max=4))
    def test_count_is_exact(self, ws):
        # E against the positions of [0, S) that each window's own
        # definition cuts, with no residue classes in between.
        S = slide_period(ws)
        paired_cuts, paned_cuts = set(), set()
        for w in ws:
            paired_cuts.update(range(0, S, w.s), range(w.r % w.s, S, w.s))
            paned_cuts.update(range(0, S, math.gcd(w.r, w.s)))
        for technique, cuts in (("paired", paired_cuts), ("paned", paned_cuts)):
            assert composed_edge_count(ws, technique) == len(cuts), technique
            classes = edge_classes(ws, technique)
            assert not [
                (c, d) for c in classes for d in classes
                if c != d and c[1] % d[1] == 0 and (c[0] - d[0]) % d[1] == 0
            ]


def simulate_shared_final(ws, technique):
    """Brute-force count of final-aggregate inputs over one period S:
    for every firing of every window, count composed slices contained in
    its range (edges are periodic, so sum over firings in [0, S))."""
    S = slide_period(ws)
    horizon = S + max(w.r for w in ws)
    edges = composed_edges(ws, technique, horizon)
    total = 0
    for w in ws:
        for t in range(0, S, w.s):
            total += sum(1 for e in edges if t < e <= t + w.r)
    return total


class TestTable1Formulas:
    @pytest.mark.parametrize("technique", ["paned", "paired"])
    @pytest.mark.parametrize("ws", [GENERAL, TUMBLING])
    def test_shared_final_matches_simulation(self, technique, ws):
        fn = shared_paned if technique == "paned" else shared_paired
        got = fn(ws, eta=1)
        assert got.final == simulate_shared_final(ws, technique)

    @pytest.mark.parametrize("seed", range(5))
    def test_shared_final_matches_simulation_random(self, seed):
        ws = random_gen(n=4, s_max=8, k_max=4, seed=seed)
        got = shared_paned(ws, eta=1)
        assert got.final == simulate_shared_final(ws, "paned")

    def test_partial_costs(self):
        ws = TUMBLING
        S = slide_period(ws)
        assert unshared_paned(ws, eta=3).partial == 3 * len(ws) * S
        assert shared_paned(ws, eta=3).partial == 3 * S

    def test_unshared_paned_final(self):
        # Σ (S/s_i)·(r_i/g_i), S = lcm(4,2,6) = 12 for GENERAL.
        got = unshared_paned(GENERAL, eta=1)
        assert got.S == 12
        expect = (12 // 4) * (12 // 4) + (12 // 2) * (10 // 2) + (12 // 6) * 1
        assert got.final == expect

    def test_unshared_paired_final(self):
        got = unshared_paired(GENERAL, eta=1)
        expect = (12 // 4) * 6 + (12 // 2) * 10 + (12 // 6) * 2
        assert got.final == expect

    def test_table1_bundle(self):
        rows = table1(TUMBLING, eta=10)
        assert set(rows) == {
            "unshared_paned",
            "unshared_paired",
            "shared_paned",
            "shared_paired",
        }
        for r in rows.values():
            assert r.total == r.partial + r.final > 0

    def test_shared_beats_unshared_partials(self):
        for ws in (GENERAL, TUMBLING):
            assert shared_paired(ws, 100).partial < unshared_paired(ws, 100).partial

    def test_non_multiple_range_rejected_for_shared(self):
        with pytest.raises(ValueError):
            shared_paned([Window(7, 3)], eta=1)
