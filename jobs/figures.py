"""The figure job: print one figure's tables.

Figures 11–15 are analytic-cost experiments (no Spark needed to compute
them — the paper evaluates the cost models, as §5.2 'Evaluation Metrics'
describes); ``python jobs/figures.py figNN`` prints the markdown tables
that EXPERIMENTS.md records for Figure NN.
"""
from __future__ import annotations

from repro.evalfw.harness import ALL_FIGURES
from repro.evalfw.report import markdown_table


def print_figure(name: str) -> None:
    panels = ALL_FIGURES[name]()
    for panel, rows in panels.items():
        label = f"η={panel}" if isinstance(panel, int) else panel
        print(markdown_table(rows, f"{name} ({label})"))
        print()


if __name__ == "__main__":
    import sys

    print_figure(sys.argv[1] if len(sys.argv) > 1 else "fig11")
