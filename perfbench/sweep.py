"""The optimizer sweep: ``core`` and ``slicing`` over generated window sets.

The corpus follows the paper's Figures 11–15: the four §5.2 generators
(RandomGen, ChainGen, StarGen, RandomGraphGen) with ``s_max=16`` and
``k_max=8``, over a fixed seed range and several ``|W|``, at η = 100.
Footnote 5 picks the aggregate: general sets run under MIN, tumbling
sets under SUM. Each workload's traced run sweeps the family that
matches its own semantics.

The partitioned-by probe runs general sets under SUM/COUNT/AVG, plus two
hand-picked sets, once per traced run and outside every timer. Every probe set
that raises or breaks an invariant is counted as a failed operation.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.aggregates import AggSpec, get_aggregate
from repro.core.cost import baseline_cost
from repro.core.factor import optimize
from repro.core.mincost import MinCostWCG, find_min_cost_wcg
from repro.core.windows import Window
from repro.evalfw.techniques import evaluate_techniques
from repro.slicing.cost import shared_paired, unshared_paired
from repro.workloads import generators as G

S_MAX = 16
K_MAX = 8
ETA = 100
SIZES = (3, 5, 8)
SEEDS = range(40)
GRAPH_SEEDS = range(40)
PROBE_SEEDS = range(37)
PROBE_AGGS = ("sum", "count", "avg")
#: Minimal reproducers of the known partitioned-by defects.
PROBE_EXTRA = (
    (Window(5, 5), Window(15, 5), Window(30, 15)),
    (Window(6, 4), Window(4, 4)),
)


def corpus(*, tumbling: bool) -> list[list[Window]]:
    """The fixed sweep corpus of one family (400 window sets)."""
    sets = [
        gen(n=n, s_max=S_MAX, k_max=K_MAX, seed=seed, tumbling=tumbling)
        for gen in (G.random_gen, G.chain_gen, G.star_gen)
        for n in SIZES
        for seed in SEEDS
    ]
    sets += [
        G.random_graph_gen(
            levels=3, base=2, delta=2, s_max=S_MAX, k_max=K_MAX,
            seed=seed, tumbling=tumbling,
        )
        for seed in GRAPH_SEEDS
    ]
    return sets


def probe_sets() -> list[list[Window]]:
    """General (non-tumbling) sets for the partitioned-by probe."""
    sets = [
        gen(n=5, s_max=S_MAX, k_max=K_MAX, seed=seed, tumbling=False)
        for gen in (G.random_gen, G.chain_gen, G.star_gen)
        for seed in PROBE_SEEDS
    ]
    sets += [
        G.random_graph_gen(
            levels=3, base=2, delta=2, s_max=S_MAX, k_max=K_MAX,
            seed=seed, tumbling=False,
        )
        for seed in PROBE_SEEDS
    ]
    return sets + [list(ws) for ws in PROBE_EXTRA]


def plan_problems(windows: list[Window], m: MinCostWCG, wcg: MinCostWCG) -> list[str]:
    """The paper's invariants for one optimized set; empty when all hold.

    * the plan is a forest whose parents are plan windows;
    * model cost WCG-FW ≤ WCG (Algorithm 1) ≤ BL;
    * the exposed windows are exactly the query windows (factor windows
      are never exposed).
    """
    problems = []
    for w in m.windows:
        seen = {w}
        p = m.parent[w]
        while p is not None:
            if p not in m.parent or p in seen:
                problems.append(f"{w}: parent chain is not a forest")
                break
            seen.add(p)
            p = m.parent[p]
    bl = baseline_cost(windows, m.eta, m.R)
    if not m.total <= wcg.total <= bl:
        problems.append(f"cost order WCG-FW {m.total} <= WCG {wcg.total} <= BL {bl} broken")
    if sorted(m.exposed()) != sorted(windows):
        problems.append(f"exposed {sorted(m.exposed())} != query {sorted(windows)}")
    return problems


@dataclass
class SweepPass:
    """One untraced pass: the whole-sweep time and per-set optimize times."""

    sweep_s: float
    optimize_ms: list[float]
    failures: list[str] = field(default_factory=list)


def untraced_pass(sets: list[list[Window]], agg: AggSpec) -> SweepPass:
    """``evaluate_techniques`` over the sweep, then ``optimize`` per set.

    Invariants are checked after each timed call, outside its timer.
    """
    failures: list[str] = []
    t0 = time.perf_counter()
    costs = [evaluate_techniques(ws, agg, ETA) for ws in sets]
    sweep_s = time.perf_counter() - t0
    opt_ms = []
    for ws, c in zip(sets, costs):
        t = time.perf_counter()
        m = optimize(ws, agg, ETA)
        opt_ms.append((time.perf_counter() - t) * 1e3)
        problems = plan_problems(ws, m, find_min_cost_wcg(ws, agg, ETA))
        if not c["WCG-FW"] <= c["WCG"] <= c["BL"]:
            problems.append(f"technique costs {c.costs} out of order")
        if problems:
            failures.append(f"{ws}: " + "; ".join(problems))
    return SweepPass(sweep_s, opt_ms, failures)


@dataclass
class TracedPass:
    """One traced pass: each layer call of ``evaluate_techniques`` timed
    on its own (totals over the sweep, in ms)."""

    optimize_ms: list[float]
    alg1_ms: float
    sp_cost_ms: float
    up_cost_ms: float
    failures: list[str] = field(default_factory=list)


def traced_pass(sets: list[list[Window]], agg: AggSpec) -> TracedPass:
    """Invariants are checked after the whole pass, outside its timers."""
    opt_ms: list[float] = []
    plans = []
    alg1 = sp = up = 0.0
    for ws in sets:
        t = time.perf_counter()
        wcg = find_min_cost_wcg(ws, agg, ETA)
        t1 = time.perf_counter()
        m = optimize(ws, agg, ETA)
        t2 = time.perf_counter()
        shared_paired(ws, ETA)
        t3 = time.perf_counter()
        unshared_paired(ws, ETA)
        t4 = time.perf_counter()
        alg1 += t1 - t
        opt_ms.append((t2 - t1) * 1e3)
        sp += t3 - t2
        up += t4 - t3
        plans.append((ws, m, wcg))
    failures = [
        f"{ws}: " + "; ".join(problems)
        for ws, m, wcg in plans
        if (problems := plan_problems(ws, m, wcg))
    ]
    return TracedPass(opt_ms, alg1 * 1e3, sp * 1e3, up * 1e3, failures)


def run_probe() -> tuple[int, list[str], list[str]]:
    """Partitioned-by probe: ``(attempted, crashed, broken)``, one message
    per failed set — crashed sets raised, broken ones gave a plan that
    breaks an invariant."""
    crashed, broken = [], []
    attempted = 0
    for ws in probe_sets():
        for name in PROBE_AGGS:
            agg = get_aggregate(name)
            attempted += 1
            try:
                m = optimize(ws, agg, ETA)
                wcg = find_min_cost_wcg(ws, agg, ETA)
            except Exception as e:  # noqa: BLE001 — a crash is the measured failure
                crashed.append(f"{name} {ws}: {type(e).__name__}: {e}")
                continue
            if problems := plan_problems(ws, m, wcg):
                broken.append(f"{name} {ws}: " + "; ".join(problems))
    return attempted, crashed, broken
