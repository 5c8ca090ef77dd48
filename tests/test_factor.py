"""Factor windows (§4): Equations 2–3, Algorithms 2–4, Theorems 8–9,
and the paper's Examples 7 and 8."""
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AGGREGATES, Semantics, get_aggregate
from repro.core.cost import baseline_cost, window_cost
from repro.core.factor import (
    algorithm2,
    algorithm3,
    algorithm4,
    find_best_factor_generic,
    generate_candidates,
    optimize,
    pattern_cost_delta,
    theorem9_prefers,
    transitive_reduction_children,
)
from repro.core.mincost import find_min_cost_wcg, minimize_over_graph
from repro.core.wcg import UNIT_WINDOW, WCG, augment_wcg, build_wcg
from repro.core.windows import Window, covers, hyperperiod
from repro.workloads.generators import chain_gen, random_gen, random_graph_gen, star_gen
from tests.window_sets import window_sets

MIN = get_aggregate("min")
SUM = get_aggregate("sum")
EX7 = [Window(x, x) for x in (20, 30, 40)]  # Example 7's query windows
W10 = Window(10, 10)


class TestTransitiveReduction:
    def test_example6(self):
        g = build_wcg([Window(x, x) for x in (10, 20, 30, 40)], Semantics.COVERED_BY)
        # W1 directly feeds W2 and W3; W4 is reached through W2.
        assert transitive_reduction_children(g, Window(10, 10)) == [
            Window(20, 20),
            Window(30, 30),
        ]
        assert transitive_reduction_children(g, Window(20, 20)) == [Window(40, 40)]

    def test_root_children_match_paper_augmentation(self):
        # §4.1 wires S only to windows with no other incoming edge: for
        # Example 7 that is {W2, W3} (W4 is covered by W2) — exactly the
        # transitive reduction of S's out-edges.
        g = augment_wcg(build_wcg(EX7, Semantics.PARTITIONED_BY))
        assert transitive_reduction_children(g, UNIT_WINDOW) == [
            Window(20, 20),
            Window(30, 30),
        ]


class TestPatternCostDelta:
    def test_example8_candidate_costs(self):
        # Footnote 8 of the paper: pattern = S with children {W2, W3}.
        R = 120
        children = [Window(20, 20), Window(30, 30)]
        # Pattern cost without a factor window: W2,W3 each read from S.
        without = 6 * 20 + 4 * 30  # n_j·M(W_j,S) = 240
        for r_f, expect in [(2, 240), (5, 168), (10, 144)]:
            wf = Window(r_f, r_f)
            delta = pattern_cost_delta(UNIT_WINDOW, children, wf, R)
            assert without + delta == expect

    def test_delta_zero_for_useless_factor(self):
        # W(2,2) leaves the pattern cost unchanged (footnote 8).
        assert (
            pattern_cost_delta(
                UNIT_WINDOW, [Window(20, 20), Window(30, 30)], Window(2, 2), 120
            )
            == 0
        )


class TestEligibility:
    def test_figure9_constraints(self):
        for sem in Semantics:
            cands = generate_candidates(UNIT_WINDOW, [Window(20, 20), Window(30, 30)], sem)
            assert W10 in cands
            assert UNIT_WINDOW not in cands  # wf == w
            cands = generate_candidates(UNIT_WINDOW, [W10, Window(20, 10)], sem)
            assert Window(5, 5) in cands
            assert W10 not in cands  # wf ∈ children
            # wf must cover w and be covered by every child: ⟨6,6⟩ feeds
            # both children but does not cover ⟨4,4⟩ (6 % 4 ≠ 0).
            children = [Window(12, 12), Window(24, 24)]
            assert Window(6, 6) in generate_candidates(Window(2, 2), children, sem)
            cands = generate_candidates(Window(4, 4), children, sem)
            assert cands == ([Window(8, 4)] if sem is Semantics.COVERED_BY else [])

    def test_generate_candidates_example8(self):
        children = [Window(20, 20), Window(30, 30)]
        cands = generate_candidates(UNIT_WINDOW, children, Semantics.PARTITIONED_BY)
        assert set(cands) == {Window(2, 2), Window(5, 5), Window(10, 10)}

    def test_generate_candidates_covered_by_superset(self):
        children = [Window(20, 2), Window(30, 2)]
        cands = generate_candidates(UNIT_WINDOW, children, Semantics.COVERED_BY)
        # hopping candidates are allowed under covered-by:
        assert Window(10, 2) in cands
        for wf in cands:
            assert wf not in (UNIT_WINDOW, *children)
            assert covers(wf, UNIT_WINDOW) and all(covers(c, wf) for c in children)


class TestAlgorithm3:
    R = 120

    def test_k_ge_2_always_true(self):
        assert algorithm3(W10, UNIT_WINDOW, [Window(20, 20), Window(30, 30)], self.R)

    def test_single_tumbling_child_false(self):
        # Case 1: K=1 and k1=1 — the factor window cannot help.
        assert not algorithm3(W10, UNIT_WINDOW, [Window(20, 20)], self.R)

    def test_single_hopping_child_k3_m3_true(self):
        # K=1, k1 ≥ 3 and m1 ≥ 3 ⇒ true.
        child = Window(30, 10)  # k1 = 3, m1 = 120/30 = 4
        assert algorithm3(W10, Window(5, 5), [child], self.R)

    def test_ratio_branch(self):
        # k1 = 2, m1 = 2 ⇒ λ/(λ−1) = 1 + 2/(1·1) = 3: need r_f/r_W ≥ 3.
        child = Window(60, 30)  # k1 = 2, m1 = 120/60 = 2
        assert not algorithm3(Window(30, 30), Window(15, 15), [child], self.R)
        assert algorithm3(Window(30, 30), Window(10, 10), [child], self.R)

    def test_m1_equal_1_false(self):
        child = Window(120, 60)  # m1 = 1 ⇒ n1 = 1, λ = 1
        assert not algorithm3(Window(60, 60), Window(30, 30), [child], self.R)

    @pytest.mark.parametrize("child, wf", [
        (Window(6, 4), Window(2, 2)), (Window(20, 8), Window(4, 4)),
        (Window(45, 30), Window(15, 15)),
    ])
    def test_child_with_r_mod_s_nonzero_takes_equation3(self, child, wf):
        # Theorem 8's closed form assumes r1 = k1·s1; such a child is
        # judged by Equation 3 itself.
        delta = pattern_cost_delta(UNIT_WINDOW, [child], wf, self.R)
        assert algorithm3(wf, UNIT_WINDOW, [child], self.R) == (delta <= 0)

    def test_requires_tumbling(self):
        with pytest.raises(ValueError):
            algorithm3(Window(10, 5), UNIT_WINDOW, [Window(20, 20)], self.R)

    @pytest.mark.parametrize("k1", [2, 3, 4, 5])
    @pytest.mark.parametrize("m1", [2, 3, 4])
    @pytest.mark.parametrize("rf_mult", [2, 3, 4, 6])
    def test_matches_equation3_theorem8(self, k1, m1, rf_mult):
        # Build a concrete configuration: W tumbling with range rw, child
        # with range m·?·... and verify Algorithm 3 == (Eq. 2 delta ≤ 0).
        rw = 2
        rf = rw * rf_mult
        s1 = rf  # child slide must make wf cover child: s1 % rf == 0
        r1 = k1 * s1
        R = m1 * r1
        child = Window(r1, s1)
        wf, w = Window(rf, rf), Window(rw, rw)
        delta = pattern_cost_delta(w, [child], wf, R)
        assert algorithm3(wf, w, [child], R) == (delta <= 0) or delta == 0


class TestTheorem9:
    def test_reduces_to_bigger_range_wins(self):
        # For tumbling candidates the pattern cost is Σn_j·r_j/r_f + R/r_W,
        # strictly decreasing in r_f — Theorem 9 must agree.
        children = [Window(20, 20), Window(30, 30)]
        R = 120
        assert theorem9_prefers(W10, Window(5, 5), UNIT_WINDOW, children, R)
        assert not theorem9_prefers(Window(5, 5), W10, UNIT_WINDOW, children, R)

    @pytest.mark.parametrize("rf,rf2", [(2, 5), (2, 10), (5, 10), (10, 10)])
    def test_consistent_with_direct_costs(self, rf, rf2):
        children = [Window(20, 20), Window(30, 30)]
        R = 120
        wf, wf2 = Window(rf, rf), Window(rf2, rf2)
        direct = pattern_cost_delta(UNIT_WINDOW, children, wf, R) <= (
            pattern_cost_delta(UNIT_WINDOW, children, wf2, R)
        )
        assert theorem9_prefers(wf, wf2, UNIT_WINDOW, children, R) == direct


class TestAlgorithm4:
    def test_example8_picks_w10(self):
        children = [Window(20, 20), Window(30, 30)]
        assert algorithm4(UNIT_WINDOW, children, 120) == W10

    def test_no_candidate_when_gcd_equals_rw(self):
        # line 2–3: d == r_W ⇒ nothing fits between W and its children.
        assert algorithm4(W10, [Window(20, 20), Window(30, 30)], 120) is None

    def test_single_tumbling_child_yields_none(self):
        # All candidates fail Algorithm 3's K=1, k1=1 case.
        assert algorithm4(UNIT_WINDOW, [Window(20, 20)], 120) is None

    def test_excludes_taken_windows(self):
        children = [Window(20, 20), Window(30, 30)]
        got = algorithm4(UNIT_WINDOW, children, 120, taken={W10})
        assert got != W10


class TestAlgorithm2AndOptimize:
    def test_example7_with_factors_is_150(self):
        m = algorithm2(EX7, SUM, eta=1)
        assert m.total == 150
        assert W10 in m.windows and W10 in m.factors
        assert m.parent[Window(20, 20)] == W10
        assert m.parent[Window(30, 30)] == W10
        assert m.parent[Window(40, 40)] == Window(20, 20)
        # 58.3% below BL=360, 39% below the no-factor 246 (Example 7).
        assert 1 - 150 / 360 == pytest.approx(0.583, abs=1e-3)
        assert 1 - 150 / 246 == pytest.approx(0.39, abs=5e-3)

    def test_example7_covered_by_same_result(self):
        assert algorithm2(EX7, MIN, eta=1).total == 150

    def test_factor_not_exposed(self):
        m = algorithm2(EX7, SUM, eta=1)
        assert m.exposed() == EX7

    def test_unused_root_pruned(self):
        # At η=1 nothing benefits from reading S, so S must be gone.
        m = algorithm2(EX7, SUM, eta=1)
        assert UNIT_WINDOW not in m.windows

    def test_unit_root_used_at_high_eta(self):
        # At η=100 the factor window W(10,10) still beats the no-factor
        # plan. S would be its one child's parent, at cost η·R, the same
        # as W(10,10) reading the raw stream: S adds a level and saves
        # nothing, so the benefit pass drops it.
        m = algorithm2(EX7, SUM, eta=100)
        assert m.total < find_min_cost_wcg(EX7, SUM, eta=100).total
        assert UNIT_WINDOW not in m.windows

    def test_optimize_returns_best_of_both(self):
        for eta in (1, 10, 100):
            m_opt = optimize(EX7, SUM, eta=eta)
            m1 = find_min_cost_wcg(EX7, SUM, eta=eta)
            m2 = algorithm2(EX7, SUM, eta=eta)
            assert m_opt.total == min(m1.total, m2.total)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("gen", [random_gen, chain_gen, star_gen])
    def test_factor_never_hurts_after_best_of(self, seed, gen):
        ws = gen(n=5, s_max=8, k_max=4, seed=seed)
        for eta in (1, 100):
            assert optimize(ws, MIN, eta=eta).total <= find_min_cost_wcg(
                ws, MIN, eta=eta
            ).total

    @pytest.mark.parametrize("seed", range(6))
    def test_factor_windows_forest_and_exposure(self, seed):
        ws = chain_gen(n=5, s_max=8, k_max=4, seed=seed, tumbling=True)
        m = algorithm2(ws, SUM, eta=100)
        assert set(m.exposed()) == set(ws)
        topo = m.topological()
        assert sorted(topo) == sorted(m.windows)

    def test_example6_gains_little_from_factors(self):
        # Example 6's set already contains W(10,10); Algorithm 2 should
        # not beat 150 at η=1.
        ws = [Window(x, x) for x in (10, 20, 30, 40)]
        assert optimize(ws, SUM, eta=1).total == 150


class TestOptimizerTotal:
    def test_tumbling_factor_divides_child_slides(self):
        # W(30,15) is partitioned by a tumbling window only if its range
        # divides 15 as well as 30 (Theorem 4): W(15,15) may not feed it.
        m = optimize([Window(5, 5), Window(15, 5), Window(30, 15)], SUM, eta=1)
        assert set(m.exposed()) == {Window(5, 5), Window(15, 5), Window(30, 15)}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        ws=window_sets(n_max=6, s_max=16, k_max=8),
        agg=st.sampled_from(sorted(AGGREGATES)),
        eta=st.sampled_from([1, 10, 100]),
    )
    def test_optimize_keeps_the_papers_invariants(self, ws, agg, eta):
        # The generators draw r = k·s; the arbitrary sets need not.
        spec = get_aggregate(agg)
        m = optimize(ws, spec, eta=eta)
        # A forest over the query and factor windows, every c_i as the
        # cost model gives it for the chosen parent.
        assert sorted(m.topological()) == sorted(m.windows)
        for w, p in m.parent.items():
            assert p is None or (p in m.parent and p != w)
            assert m.cost[w] == window_cost(w, p, m.R, eta)
        assert m.total <= find_min_cost_wcg(ws, spec, eta).total <= baseline_cost(ws, eta)
        # Factor windows are never exposed; every query window is.
        assert sorted(m.exposed()) == sorted(ws)
        assert not m.factors & set(ws)
        # Every factor window pays for itself: Algorithm 1 over the plan's
        # windows without it finds no cheaper plan.
        for f in m.factors:
            assert _total_without(m, f, spec) >= m.total, f
        # A fixed point: over the plan's own windows Algorithm 1 returns the
        # plan itself, so every factor is read and every parent is the
        # cheapest among the plan's windows.
        g = WCG(tuple(m.windows), spec.semantics, frozenset(m.factors))
        again = minimize_over_graph(g, eta, m.R)
        assert (again.windows, again.parent, again.cost, again.factors) == (
            m.windows, m.parent, m.cost, m.factors,
        )

    @pytest.mark.parametrize("agg", sorted(AGGREGATES))
    def test_windows_with_r_mod_s_nonzero(self, agg):
        # W(6,4) has instances [0,6), [4,10), [8,14): two inside R = 12.
        ws = [Window(4, 4), Window(6, 4)]
        m = optimize(ws, get_aggregate(agg), eta=1)
        assert sorted(m.exposed()) == ws
        assert m.total <= baseline_cost(ws, 1) == 12 + 2 * 6

    def test_benefit_pass_reruns_over_the_plans_windows(self):
        # Without W(126,126), Algorithm 1 over every candidate picked
        # another one that cost more; over the plan's windows it is cheaper.
        ws = [Window(r, s) for r, s in (
            (14, 7), (28, 14), (63, 7), (63, 9), (70, 14), (84, 7), (98, 7), (108, 18),
            (126, 9), (180, 36), (324, 36), (504, 252),
        )]
        spec = get_aggregate("max")
        m = optimize(ws, spec, eta=1)
        assert m.factors == {Window(99, 9)}
        assert m.total == 2049292
        assert _total_without(m, Window(99, 9), spec) >= m.total

    def test_example7_drops_the_unit_root_at_eta_25(self):
        # S would feed only W(10,10): a level that saves nothing.
        m = optimize(EX7, SUM, eta=25)
        assert m.parent == {
            Window(10, 10): None,
            Window(20, 20): Window(10, 10),
            Window(30, 30): Window(10, 10),
            Window(40, 40): Window(20, 20),
        }
        assert m.total == 3030

    def test_hop_chain_drops_a_useless_factor(self):
        # One factor root, then the chain: five levels, where S above
        # W(10,10) made six.
        hop = [Window(60, 10), Window(120, 10), Window(240, 10), Window(480, 10)]
        m = optimize(hop, MIN, eta=10)
        assert m.parent == {
            Window(10, 10): None,
            **{c: p for p, c in zip([Window(10, 10), *hop], hop)},
        }
        assert m.total == 5667

    def test_unit_root_kept_with_two_children(self):
        m = optimize([Window(4, 4), Window(6, 6)], SUM, eta=10)
        assert m.children(UNIT_WINDOW) == [Window(4, 4), Window(6, 6)]
        assert m.parent[UNIT_WINDOW] is None
        assert m.total == 144


#: SHA-256 of ``optimize()``'s plans over the optimizer sweep's corpus,
#: per family and η; see :func:`_corpus_plans_digest`.
PINNED_PLAN_DIGESTS = {
    ("min", False, 10): (
        "1deefb87a0f5b611396853b33dbdf911"
        "2d8f9fffaf21e870a16fa4167cf9116d"
    ),
    ("min", False, 100): (
        "22ed78f5f7534cc67423b0edd09d054e"
        "13abb163c5c87b86b3a159ab5f71d530"
    ),
    ("sum", True, 10): (
        "a53d7a445f6525b9a66a37c928048831"
        "f06781ad1049a6cc78e6f3fb5180a417"
    ),
    ("sum", True, 100): (
        "fed8f180824c1f38e199f12a7e913a21"
        "023155e590fd0446e0cc5e1be82556d4"
    ),
}


def _corpus_plans_digest(agg: str, tumbling: bool, eta: int) -> str:
    """Hash every plan ``optimize()`` returns over one family of the sweep
    corpus: the three §5.2 generators at sizes 3/5/8 and RandomGraphGen,
    seeds 0–39, ``s_max=16``, ``k_max=8``. Orders are hashed as they are,
    since the engine numbers a plan's nodes by ``list(parent)``."""
    spec = get_aggregate(agg)
    sets = [
        gen(n=n, s_max=16, k_max=8, seed=seed, tumbling=tumbling)
        for gen in (random_gen, chain_gen, star_gen)
        for n in (3, 5, 8)
        for seed in range(40)
    ] + [
        random_graph_gen(levels=3, base=2, delta=2, s_max=16, k_max=8, seed=seed, tumbling=tumbling)
        for seed in range(40)
    ]
    h = hashlib.sha256()
    for ws in sets:
        m = optimize(ws, spec, eta=eta)
        plan = (m.windows, list(m.parent.items()), list(m.cost.items()), sorted(m.factors), m.R)
        h.update(repr(plan).encode())
    return h.hexdigest()


@pytest.mark.parametrize(("agg", "tumbling", "eta"), sorted(PINNED_PLAN_DIGESTS))
def test_optimize_returns_the_pinned_corpus_plans(agg, tumbling, eta):
    # Footnote 5's families: general sets under MIN, tumbling sets under SUM.
    assert _corpus_plans_digest(agg, tumbling, eta) == PINNED_PLAN_DIGESTS[agg, tumbling, eta]


def _total_without(m, f, agg) -> int:
    """Algorithm 1's total over ``m``'s windows without the factor ``f``."""
    keep = tuple(w for w in m.windows if w != f)
    g = WCG(keep, agg.semantics, frozenset(m.factors - {f}))
    return minimize_over_graph(g, m.eta, m.R).total
