"""Hypothesis strategies for window sets: the four generators of §5
(Algorithm 5's RandomGen, ChainGen, StarGen and RandomGraphGen), which
always draw ``r = k·s``, and arbitrary sets of ``0 < s ≤ r`` windows."""
from hypothesis import strategies as st

from repro.core.windows import Window
from repro.workloads.generators import chain_gen, random_gen, random_graph_gen, star_gen


def _graph_gen(n, s_max, k_max, seed):
    return random_graph_gen(levels=3, base=2, delta=2, s_max=s_max, k_max=k_max, seed=seed)


GENERATORS = [random_gen, chain_gen, star_gen, _graph_gen]


def window_sets(*, n_max: int, s_max: int, k_max: int):
    """A strategy of sorted window sets: a generator's set of about
    ``2…n_max`` windows, or ``2…n_max`` arbitrary windows with
    ``s ≤ s_max`` and ``r ≤ k_max·s``."""
    generated = st.builds(
        lambda gen, n, seed: gen(n=n, s_max=s_max, k_max=k_max, seed=seed),
        st.sampled_from(GENERATORS), st.integers(2, n_max), st.integers(0, 10_000),
    )
    window = st.integers(1, s_max).flatmap(
        lambda s: st.builds(Window, st.integers(s, k_max * s), st.just(s))
    )
    arbitrary = st.lists(window, min_size=2, max_size=n_max, unique=True)
    return st.one_of(generated, arbitrary).map(sorted)
