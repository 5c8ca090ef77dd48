"""WCG construction (§2.3) and augmentation (§4.1)."""
from dataclasses import FrozenInstanceError

import pytest

from repro.core.aggregates import Semantics
from repro.core.wcg import UNIT_WINDOW, WCG, augment_wcg, build_wcg, edge_allowed
from repro.core.windows import Window, covers, partitions

TUMB = [Window(x, x) for x in (10, 20, 30, 40)]
W10 = Window(10, 10)


class TestEdgeAllowed:
    def test_no_self_edge(self):
        w = Window(10, 10)
        assert not edge_allowed(w, w, Semantics.COVERED_BY)
        assert not edge_allowed(w, w, Semantics.PARTITIONED_BY)

    def test_covered_by_uses_coverage(self):
        c, p = Window(10, 2), Window(8, 2)
        assert edge_allowed(c, p, Semantics.COVERED_BY)
        # p is hopping → partitioning fails (Theorem 4 condition 3).
        assert not edge_allowed(c, p, Semantics.PARTITIONED_BY)

    def test_partitioned_by_requires_tumbling_parent(self):
        assert edge_allowed(Window(20, 10), Window(5, 5), Semantics.PARTITIONED_BY)


class TestBuildWCG:
    def test_example6_graph(self):
        # Figure 6(a): edges W1→{W2,W3,W4}, W2→W4 (tumbling ⇒ both
        # semantics coincide, as the paper notes in Example 6).
        for sem in Semantics:
            g = build_wcg(TUMB, sem)
            w1, w2, w3, w4 = TUMB
            assert g.edges[w1] == {w2, w3, w4}
            assert g.edges[w2] == {w4}
            assert g.edges[w3] == set()
            assert g.edges[w4] == set()
            assert g.parents[w4] == {w1, w2}

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            build_wcg([Window(10, 10), Window(10, 10)], Semantics.COVERED_BY)

    def test_parents_is_reverse_of_edges(self):
        g = build_wcg(TUMB, Semantics.COVERED_BY)
        for p, cs in g.edges.items():
            for c in cs:
                assert p in g.parents[c]

    def test_no_factor_vertices_initially(self):
        g = build_wcg(TUMB, Semantics.COVERED_BY)
        assert g.factors == frozenset()
        assert g.windows == tuple(TUMB)

    def test_general_windows_covered_by(self):
        # W(10,2) ≤ W(8,2) (paper Example 2) appears as an edge.
        g = build_wcg([Window(10, 2), Window(8, 2)], Semantics.COVERED_BY)
        assert Window(10, 2) in g.edges[Window(8, 2)]

    def test_edges_match_predicate_exhaustively(self):
        # Over the query windows, then over the augmented graph with a
        # hopping and a tumbling factor window (S⟨1,1⟩ is a factor too).
        ws = [Window(k * s, s) for s in (2, 3, 4) for k in (1, 2, 3)]
        for sem, pred in [
            (Semantics.COVERED_BY, covers),
            (Semantics.PARTITIONED_BY, partitions),
        ]:
            fs = frozenset({UNIT_WINDOW, Window(10, 2), Window(6, 6)})
            for g in (
                build_wcg(ws, sem),
                WCG((*ws, *sorted(fs)), sem, fs),
            ):
                for p in g.windows:
                    assert g.parents[p] == {q for q in g.windows if p in g.edges[q]}
                    for c in g.windows:
                        expect = c != p and pred(c, p)
                        assert (c in g.edges[p]) == expect


class TestAugmentWCG:
    def test_adds_unit_root_as_factor(self):
        g = augment_wcg(build_wcg(TUMB, Semantics.PARTITIONED_BY))
        assert UNIT_WINDOW in g.edges
        assert UNIT_WINDOW in g.factors
        # S covers every window under both semantics.
        assert g.edges[UNIT_WINDOW] == set(TUMB)

    def test_does_not_duplicate_existing_unit_window(self):
        ws = [UNIT_WINDOW, Window(10, 10)]
        g = augment_wcg(build_wcg(ws, Semantics.PARTITIONED_BY))
        assert g.windows.count(UNIT_WINDOW) == 1
        # S was a query window here, so it must stay exposed.
        assert UNIT_WINDOW not in g.factors

    def test_original_untouched(self):
        base = build_wcg(TUMB, Semantics.PARTITIONED_BY)
        augment_wcg(base)
        assert UNIT_WINDOW not in base.edges

    def test_exposed_excludes_root(self):
        g = augment_wcg(build_wcg(TUMB, Semantics.PARTITIONED_BY))
        assert g.factors == {UNIT_WINDOW}
        assert [w for w in g.windows if w not in g.factors] == TUMB


class TestFactorVertices:
    def test_factor_vertex_gets_its_edges(self):
        w20, w30 = Window(20, 20), Window(30, 30)
        g = WCG((w20, w30, W10), Semantics.PARTITIONED_BY, frozenset({W10}))
        assert g.edges[W10] == {w20, w30}
        assert g.parents[w20] == g.parents[w30] == {W10}
        assert g.factors == {W10}

    def test_duplicate_vertex_raises(self):
        with pytest.raises(ValueError, match="duplicates"):
            WCG((*TUMB, W10), Semantics.COVERED_BY, frozenset({W10}))

    def test_augmenting_an_augmented_graph_changes_nothing(self):
        g = augment_wcg(build_wcg(TUMB, Semantics.COVERED_BY))
        assert augment_wcg(g) == g
        assert g.windows.count(UNIT_WINDOW) == 1

    def test_graph_is_a_frozen_value(self):
        g = build_wcg(TUMB, Semantics.COVERED_BY)
        assert g == WCG(tuple(TUMB), Semantics.COVERED_BY)
        assert g != augment_wcg(g)
        with pytest.raises(FrozenInstanceError):
            g.factors = frozenset({W10})
