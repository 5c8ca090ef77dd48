"""Logical streaming plans and the §3.3 query rewriting.

The paper's plans are dataflow graphs over four operator kinds:

* ``Source`` — the input event stream;
* ``MultiCast`` — replicate a stream to several consumers;
* ``WindowAgg`` — one window's aggregation (from raw events for roots,
  from upstream sub-aggregates otherwise);
* ``Union`` — merge the per-window outputs into the query result.

``baseline_plan`` builds Figure 1(b): Source → MultiCast → one WindowAgg
per window → Union. ``rewrite_plan`` implements §3.3: replace the flat
window set with the min-cost WCG forest, inserting a MultiCast after
every window with downstream consumers and connecting factor windows so
their output feeds children but never the Union (Figure 2(a), right).

These plan objects only describe a plan; :mod:`repro.engine.executor`
runs the forest itself, each MultiCast as a level of one chain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.mincost import MinCostWCG
from repro.core.windows import Window


class OpKind(Enum):
    SOURCE = "Source"
    MULTICAST = "MultiCast"
    WINDOW_AGG = "WindowAgg"
    UNION = "Union"


@dataclass(frozen=True)
class Op:
    """One operator. ``window`` is set for WINDOW_AGG nodes; ``exposed``
    is False for factor windows (computed but hidden from the Union)."""

    op_id: str
    kind: OpKind
    window: Window | None = None
    exposed: bool = True


@dataclass
class Plan:
    """A dataflow DAG: operators plus directed edges (producer, consumer)."""

    ops: dict[str, Op] = field(default_factory=dict)
    edges: set[tuple[str, str]] = field(default_factory=set)

    def add(self, op: Op) -> Op:
        if op.op_id in self.ops:
            raise ValueError(f"duplicate op id {op.op_id}")
        self.ops[op.op_id] = op
        return op

    def link(self, src: Op, dst: Op) -> None:
        self.edges.add((src.op_id, dst.op_id))

    def inputs(self, op: Op) -> list[Op]:
        return sorted(
            (self.ops[a] for a, b in self.edges if b == op.op_id),
            key=lambda o: o.op_id,
        )

    def outputs(self, op: Op) -> list[Op]:
        return sorted(
            (self.ops[b] for a, b in self.edges if a == op.op_id),
            key=lambda o: o.op_id,
        )

    def window_ops(self) -> list[Op]:
        return sorted(
            (o for o in self.ops.values() if o.kind is OpKind.WINDOW_AGG),
            key=lambda o: o.op_id,
        )

    def describe(self) -> str:
        """Human-readable rendering (the textual analogue of Figure 2)."""
        lines = []
        for op in sorted(self.ops.values(), key=lambda o: o.op_id):
            outs = ", ".join(o.op_id for o in self.outputs(op)) or "-"
            tag = "" if op.exposed else " [factor]"
            lines.append(f"{op.op_id}{tag} -> {outs}")
        return "\n".join(lines)


def _win_id(w: Window) -> str:
    return f"win_{w.r}_{w.s}"


def baseline_plan(windows: list[Window]) -> Plan:
    """Figure 1(b): every window aggregates the raw stream directly."""
    p = Plan()
    src = p.add(Op("source", OpKind.SOURCE))
    union = p.add(Op("union", OpKind.UNION))
    upstream = src
    if len(windows) > 1:
        mc = p.add(Op("multicast_source", OpKind.MULTICAST))
        p.link(src, mc)
        upstream = mc
    for w in sorted(windows):
        wa = p.add(Op(_win_id(w), OpKind.WINDOW_AGG, window=w))
        p.link(upstream, wa)
        p.link(wa, union)
    return p


def rewrite_plan(mincost: MinCostWCG) -> Plan:
    """§3.3 rewriting of the baseline plan against the min-cost WCG.

    Steps (quoted from the paper):
    1. windows without an incoming edge link from the source MultiCast
       (MultiCast omitted when there is a single such window);
    2. each window with outgoing edges gets a MultiCast ``M_v`` feeding
       its children, and ``M_v`` also feeds the Union (unless ``v`` is a
       factor window, whose result is hidden);
    3. windows without outgoing edges link straight to the Union.
    """
    p = Plan()
    src = p.add(Op("source", OpKind.SOURCE))
    union = p.add(Op("union", OpKind.UNION))

    roots = mincost.roots()
    root_upstream = src
    if len(roots) > 1:
        mc = p.add(Op("multicast_source", OpKind.MULTICAST))
        p.link(src, mc)
        root_upstream = mc

    wa: dict[Window, Op] = {}
    for w in mincost.topological():
        exposed = w not in mincost.factors
        wa[w] = p.add(Op(_win_id(w), OpKind.WINDOW_AGG, window=w, exposed=exposed))

    for w in mincost.topological():
        parent = mincost.parent[w]
        children = mincost.children(w)
        if parent is None:
            p.link(root_upstream, wa[w])
        if children:
            mc = p.add(Op(f"multicast_{_win_id(w)}", OpKind.MULTICAST))
            p.link(wa[w], mc)
            for c in children:
                p.link(mc, wa[c])
            if wa[w].exposed:
                p.link(mc, union)
        elif wa[w].exposed:
            p.link(wa[w], union)
    return p
