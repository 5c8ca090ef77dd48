"""The jobs/ entrypoints run end-to-end (with the session fixture) and
print the expected headline numbers."""
import runpy
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"


@pytest.fixture(autouse=True)
def _jobs_on_path():
    sys.path.insert(0, str(JOBS))
    yield
    sys.path.remove(str(JOBS))


class TestFigureJobs:
    @pytest.mark.parametrize(
        "fig", ["fig11", "fig12", "fig13", "fig14", "fig15"]
    )
    def test_print_figure(self, fig, capsys):
        from figures import print_figure

        print_figure(fig)
        out = capsys.readouterr().out
        assert "geo-mean cost/BL" in out
        assert out.count("| 9 |") >= 1  # ten sets per panel


class TestExampleJobs:
    def test_example6(self, spark, capsys):
        mod = runpy.run_path(str(JOBS / "example6.py"))
        mod["run"](spark)
        out = capsys.readouterr().out
        assert "C'  = 150" in out
        assert "rewritten == baseline rows: True" in out

    def test_example7(self, spark, capsys):
        mod = runpy.run_path(str(JOBS / "example7.py"))
        mod["run"](spark)
        out = capsys.readouterr().out
        assert "C''   = 150" in out
        assert "== baseline rows: True" in out

    def test_table1(self, spark, capsys):
        mod = runpy.run_path(str(JOBS / "table1.py"))
        mod["run"](spark)
        out = capsys.readouterr().out
        assert out.count("== baseline rows: True") == 4
        # The printed costs are EXPERIMENTS.md §2's sample table, so the
        # job and the doc cannot drift apart.
        printed: dict[str, list[str]] = {}
        for line in out.splitlines():
            name, *nums = line.split() or [""]
            if name in ("unshared_paned", "unshared_paired", "shared_paned", "shared_paired"):
                printed.setdefault(name, []).append(" / ".join(nums))
        text = (JOBS.parent / "EXPERIMENTS.md").read_text()
        section = text[text.index("## 2. Table 1"):text.index("## 3.")]
        for name, (general, tumbling) in printed.items():
            label = name.replace("_", " ").capitalize()
            assert f"| {label} | {general} | {tumbling} |" in section, name
        assert len(printed) == 4

    def test_exec_compare_small(self, spark, capsys):
        mod = runpy.run_path(str(JOBS / "exec_compare.py"))
        timings = mod["run"](spark, horizon=240, eta=5)
        assert set(timings) == {"BL", "WCG", "WCG-FW"}
