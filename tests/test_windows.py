"""Window algebra: Theorems 1–4 validated against brute-force interval
enumeration, plus the partial-order laws."""
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.windows import (
    Window,
    covering_multiplier,
    covering_set,
    covers,
    gcd_many,
    hyperperiod,
    interval_covered,
    interval_partitioned,
    lcm_many,
    partitions,
)

# A modest grid of windows (r multiple of s, as the paper assumes).
GRID = [
    Window(r=k * s, s=s) for s in (1, 2, 3, 4, 5, 6) for k in (1, 2, 3, 4, 5)
]


def brute_force_covers(w1: Window, w2: Window, n_intervals: int = 8) -> bool:
    """Definition 1 checked literally on the first few intervals of w1."""
    if w1 == w2:
        return True
    if w1.r <= w2.r:
        return False
    for m1 in range(n_intervals):
        a, b = m1 * w1.s, m1 * w1.s + w1.r
        # need intervals [a, x) and [y, b) of w2 inside [a, b)
        has_a = a % w2.s == 0 and a + w2.r <= b
        has_b = (b - w2.r) >= a and (b - w2.r) % w2.s == 0
        if not (has_a and has_b):
            return False
    return True


class TestWindowBasics:
    def test_rejects_zero_slide(self):
        with pytest.raises(ValueError):
            Window(10, 0)

    def test_rejects_slide_gt_range(self):
        with pytest.raises(ValueError):
            Window(5, 10)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            Window(5.0, 1)

    def test_equality_hash_and_order_follow_range_then_slide(self):
        for w1 in GRID:
            w2 = pickle.loads(pickle.dumps(w1))
            assert w2 is not w1 and w2 == w1 and hash(w2) == hash(w1)
            for w3 in GRID:
                eq = (w1.r, w1.s) == (w3.r, w3.s)
                assert (w1 == w3) is eq and (w1 != w3) is not eq
                assert (w1 < w3) == ((w1.r, w1.s) < (w3.r, w3.s))
        assert Window(10, 5) != (10, 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            Window(10, 5).r = 20

    def test_tumbling(self):
        assert Window(10, 10).is_tumbling
        assert not Window(10, 5).is_tumbling

    def test_k(self):
        assert Window(10, 2).k == 5
        with pytest.raises(ValueError):
            _ = Window(10, 4).k

    def test_interval_representation(self):
        # §2.1.1 example: W(10,2) = {[0,10), [2,12), [4,14), ...}
        assert list(Window(10, 2).intervals(6))[:3] == [(0, 10), (2, 12), (4, 14)]

    def test_intervals_within(self):
        # Instances fully inside [0, 12]: [0,10), [2,12) for W(10,2).
        assert list(Window(10, 2).intervals_within(12)) == [(0, 10), (2, 12)]


class TestCoverageTheorem1:
    def test_paper_example_2(self):
        # W1⟨s=2, r=10⟩ is covered by W2⟨s=2, r=8⟩ (Examples 2–3).
        assert covers(Window(10, 2), Window(8, 2))

    def test_self_coverage(self):
        assert covers(Window(10, 2), Window(10, 2))

    def test_not_covered_smaller_range(self):
        assert not covers(Window(8, 2), Window(10, 2))

    def test_equal_range_not_covered(self):
        # r1 = r2 but different windows: Definition 1 needs r1 > r2.
        assert not covers(Window(10, 2), Window(10, 5))
        assert not covers(Window(10, 5), Window(10, 2))

    @pytest.mark.parametrize("w1", GRID)
    @pytest.mark.parametrize("w2", GRID)
    def test_matches_brute_force(self, w1, w2):
        assert covers(w1, w2) == brute_force_covers(w1, w2)


class TestPartialOrderTheorem2:
    @pytest.mark.parametrize("w", GRID)
    def test_reflexive(self, w):
        assert covers(w, w)

    @pytest.mark.parametrize("w1", GRID[:12])
    @pytest.mark.parametrize("w2", GRID[:12])
    def test_antisymmetric(self, w1, w2):
        if covers(w1, w2) and covers(w2, w1):
            assert w1 == w2

    @given(
        st.tuples(
            st.sampled_from(GRID), st.sampled_from(GRID), st.sampled_from(GRID)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_transitive(self, triple):
        w1, w2, w3 = triple
        if covers(w1, w2) and covers(w2, w3):
            assert covers(w1, w3)


class TestCoveringMultiplierTheorem3:
    def test_paper_example(self):
        # M(W1, W2) for W1⟨10,2⟩ ≤ W2⟨8,2⟩: 1 + (10-8)/2 = 2 (Figure 3).
        assert covering_multiplier(Window(10, 2), Window(8, 2)) == 2

    def test_example6_values(self):
        w1, w2, w3, w4 = (Window(x, x) for x in (10, 20, 30, 40))
        assert covering_multiplier(w2, w1) == 2
        assert covering_multiplier(w3, w1) == 3
        assert covering_multiplier(w4, w1) == 4
        assert covering_multiplier(w4, w2) == 2

    def test_raises_when_not_covered(self):
        with pytest.raises(ValueError):
            covering_multiplier(Window(8, 2), Window(10, 2))

    @pytest.mark.parametrize("w1", GRID)
    @pytest.mark.parametrize("w2", GRID)
    def test_matches_covering_set_size(self, w1, w2):
        if not covers(w1, w2) or w1 == w2:
            return
        for m in range(3):  # |I_{a,b}| is independent of the interval
            interval = (m * w1.s, m * w1.s + w1.r)
            cs = covering_set(interval, w2)
            assert len(cs) == covering_multiplier(w1, w2)
            assert interval_covered(interval, cs)


class TestPartitioningTheorem4:
    def test_paper_example_5(self):
        # W1⟨10,2⟩, W2⟨8,2⟩: covered but NOT partitioned (W2 not tumbling).
        assert covers(Window(10, 2), Window(8, 2))
        assert not partitions(Window(10, 2), Window(8, 2))

    def test_tumbling_chain(self):
        assert partitions(Window(20, 20), Window(10, 10))
        assert partitions(Window(20, 10), Window(5, 5))

    def test_partitioned_implies_covered(self):
        for w1 in GRID:
            for w2 in GRID:
                if partitions(w1, w2):
                    assert covers(w1, w2)

    @pytest.mark.parametrize("w1", GRID)
    @pytest.mark.parametrize("w2", GRID)
    def test_matches_brute_force_disjointness(self, w1, w2):
        if w1 == w2 or not covers(w1, w2):
            return
        expect = partitions(w1, w2)
        for m in range(3):
            interval = (m * w1.s, m * w1.s + w1.r)
            cs = covering_set(interval, w2)
            assert interval_partitioned(interval, cs) == expect


class TestNumberTheoryHelpers:
    def test_lcm_many(self):
        assert lcm_many([10, 20, 30, 40]) == 120

    def test_gcd_many(self):
        assert gcd_many([20, 30, 40]) == 10

    def test_lcm_empty_raises(self):
        with pytest.raises(ValueError):
            lcm_many([])

    def test_hyperperiod_matches_math(self):
        ws = [Window(6, 2), Window(10, 5), Window(15, 15)]
        assert hyperperiod(ws) == math.lcm(6, 10, 15)
