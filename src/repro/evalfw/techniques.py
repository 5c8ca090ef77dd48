"""The five participating techniques of §5.2, on a common cost scale.

* **BL** — direct evaluation of every window (no sharing);
* **UP** — unshared paired windows (Table 1 row 2);
* **SP** — shared paired windows (Table 1 row 4);
* **WCG** — Algorithm 1 (min-cost WCG, no factor windows);
* **WCG-FW** — best of Algorithms 1 and 2 (factor windows allowed, §4.3).

The WCG-family costs are modeled over the hyperperiod ``R = lcm(ranges)``
and the slicing costs over ``S = lcm(slides)``; following §5.2's
"Evaluation Metrics", both are extended to ``L = lcm(S, R)`` so all five
numbers count operations over the *same* time span.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.aggregates import AggSpec
from repro.core.cost import baseline_cost
from repro.core.factor import optimize
from repro.core.mincost import find_min_cost_wcg
from repro.core.windows import Window, hyperperiod
from repro.slicing.compose import slide_period
from repro.slicing.cost import shared_paired, unshared_paired

#: Display order used in every table/figure of the paper.
TECHNIQUE_ORDER = ["BL", "UP", "SP", "WCG", "WCG-FW"]


@dataclass(frozen=True)
class TechniqueCosts:
    """Exact operation counts of all techniques over the common period."""

    windows: tuple[Window, ...]
    eta: int
    R: int
    S: int
    L: int
    costs: dict[str, int]

    def __getitem__(self, technique: str) -> int:
        return self.costs[technique]


def evaluate_techniques(
    windows: list[Window], agg: AggSpec, eta: int
) -> TechniqueCosts:
    """All five techniques' costs for one window set, over ``lcm(S, R)``."""
    R = hyperperiod(windows)
    S = slide_period(windows)
    L = R // math.gcd(R, S) * S
    wcg = find_min_cost_wcg(windows, agg, eta)
    wcg_fw = optimize(windows, agg, eta)
    costs = {
        "BL": baseline_cost(windows, eta, R) * (L // R),
        "UP": unshared_paired(windows, eta).total * (L // S),
        "SP": shared_paired(windows, eta).total * (L // S),
        "WCG": wcg.total * (L // R),
        "WCG-FW": wcg_fw.total * (L // R),
    }
    return TechniqueCosts(
        windows=tuple(windows), eta=eta, R=R, S=S, L=L, costs=costs
    )
