"""One-command benchmark of correlated window aggregates: the executed
BL / WCG / WCG-FW / SP plans, the optimizer sweep, and streaming.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tumbling_sum --seed 1 --seconds 12 --trace 0

One process, Spark on ``local[<nproc>]``, one query in flight at a time
(a closed loop with one client). ``--trace 0`` prints the end-to-end
metrics (set-up and the four plans); ``--trace 1`` prints the per-layer
metrics (the optimizer sweep, Spark counters, window operators,
streaming), including the tracing overhead measured against untraced
repetitions in the same run.
Every answer is checked against the DuckDB oracle and every optimized
plan against the paper's invariants, outside the timers. The last line of
stdout is one JSON object; a full report (config, per-window detail,
failure messages) goes to ``.bench_work/results/``. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
DRIVER_MEMORY = "2g"
#: Set-ups per untraced run. ``setup_s`` is their median plus the first
#: warm-up round that follows the last of them.
SETUPS = 3
#: Unrecorded warm-up rounds per run, untraced and traced. After one
#: round every plan still gets 20-35% faster over the next two, and
#: timing them there spread the medians of ten runs by up to a quarter.
WARMUP_ROUNDS = {0: 2, 1: 1}
#: Timed rounds per run: at least this many untraced, however short
#: ``--seconds`` is; exactly this many traced. Four rounds in all is what
#: the suite's time budget allows on hopping_min.
MIN_ROUNDS = {0: 2, 1: 1}

END_TO_END = {"setup_s": "s", "bl_s": "s", "wcg_s": "s", "wcg_fw_s": "s", "sp_s": "s"}
OP_FIELDS = {"rows_in": "rows", "pairs": "count", "rows_out": "rows", "s": "s", "pairs_per_model": "ratio"}
OP_GROUPS = ("bl.root", "wcg.root", "wcg.rollup", "wcg_fw.root", "wcg_fw.rollup")
STREAM_METRICS = {
    "drain_s": "s",
    "queries": "count",
    "batches": "count",
    "input_rows": "rows",
    "state_rows": "rows",
    "state_bytes": "B",
    "add_batch_ms": "ms",
    "planning_ms": "ms",
    "wal_ms": "ms",
}
SPARK_COUNTERS = {"jobs": "count", "stages": "count", "tasks": "count", "shuffle_bytes": "B", "busy_ms": "ms"}
TECHNIQUES = ("bl", "wcg", "wcg_fw", "sp")
PER_LAYER = {
    "workloads.gen_ms": "ms",
    "streams.event_gen_s": "s",
    "core.sweep_s": "s",
    "core.optimize_ms_p50": "ms",
    "core.optimize_ms_p90": "ms",
    "core.optimize_ms": "ms",
    "core.alg1_ms": "ms",
    "core.model_cost.bl": "count",
    "core.model_cost.wcg": "count",
    "core.model_cost.wcg_fw": "count",
    "core.factor_windows": "count",
    "core.failures": "count",
    "slicing.sp_cost_ms": "ms",
    "slicing.up_cost_ms": "ms",
    "slicing.composed_edges_ms": "ms",
    **{f"engine.{t}.build_ms": "ms" for t in TECHNIQUES},
    **{f"spark.{t}.{c}": u for t in TECHNIQUES for c, u in SPARK_COUNTERS.items()},
    **{f"engine.{t}.pairs_per_event": "ratio" for t in TECHNIQUES},
    **{f"op.{g}.{f}": u for g in OP_GROUPS for f, u in OP_FIELDS.items()},
    **{f"stream.{k}": u for k, u in STREAM_METRICS.items()},
    **{f"trace.overhead.{t}_s": "s" for t in TECHNIQUES},
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check_checkout() -> None:
    """Refuse to run without the program's sources in this checkout."""
    for rel in ("src/repro/__init__.py", "jobs/_common.py"):
        if not (ROOT / rel).is_file():
            sys.exit(f"perfbench: {rel} not found under {ROOT}; run from a full checkout")


def launch_env(run_dir: Path, nproc: int) -> None:
    """Spark launcher settings, fixed before pyspark starts the JVM.

    Only placement (master, driver memory, scratch directories inside the
    checkout) and quiet console output (UI and progress bars off) are set
    here; every session default comes from ``jobs/_common.get_spark``.
    """
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    os.environ["PYTHONPATH"] = path + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(run_dir / "local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{nproc}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp}"),
            "pyspark-shell",
        ]
    )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def source_digest() -> str:
    """SHA-256 over the program's sources (a checkout need not be a git
    repository, so the commit alone may be unknown)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [ROOT / "jobs" / "_common.py"]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (Linux ``/proc``)."""
    children: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def wait_gone(pids: list[int], timeout: float) -> None:
    """Wait for ``pids`` to end; kill what is left after ``timeout``."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while Path(f"/proc/{pid}").exists():
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                break
            time.sleep(0.05)


def median(xs: list[float]) -> float | None:
    return statistics.median(xs) if xs else None


def p90(xs: list[float]) -> float | None:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else None


class Bench:
    """One benchmark run: set-up, the timed closed loop, the probes."""

    def __init__(self, args: argparse.Namespace, workload, nproc: int, run_dir: Path):
        """``workload`` is a :class:`spark_bench.Workload`."""
        import spark_bench as sb
        import sweep
        from repro.core.aggregates import get_aggregate

        self.sb, self.sweep = sb, sweep
        self.args = args
        self.wl = workload
        self.nproc = nproc
        self.run_dir = run_dir
        self.agg = get_aggregate(workload.shape.agg)
        self.sweep_agg = get_aggregate("sum" if workload.tumbling_sweep else "min")
        self.spark = None
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong = 0  # failures that are wrong answers, not crashes
        self.setups: list[dict] = []
        self.samples: dict[str, list[float]] = {}
        self.report: dict = {}

    # -- bookkeeping -------------------------------------------------
    def _sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def _fail(self, msg: str, *, wrong: bool) -> None:
        self.failures.append(msg)
        self.wrong += wrong

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Session start, event generation and persist, and the oracle's
        answer."""
        from jobs._common import get_spark

        sb, shape = self.sb, self.wl.shape
        t0 = time.perf_counter()
        if self.spark is not None:
            self.spark.stop()
        self.spark = get_spark("perfbench")
        self.spark.sparkContext.setLogLevel("ERROR")
        t1 = time.perf_counter()
        self.pdf, self.ev = sb.make_events(self.spark, shape, self.args.seed)
        t2 = time.perf_counter()
        self.expected = sb.oracle_answer(self.pdf, shape, self.agg)
        t3 = time.perf_counter()
        self.counters = sb.SparkCounters(self.spark)
        self.setups.append(
            {"s": t3 - t0, "session_s": t1 - t0, "event_gen_s": t2 - t1, "oracle_s": t3 - t2}
        )

    def warm_up(self) -> list[float]:
        """Checked, unrecorded rounds of every plan, so code generation
        and most JIT compilation are done before timing; the seconds each
        round took."""
        rounds = []
        for _ in range(WARMUP_ROUNDS[self.args.trace]):
            t0 = time.perf_counter()
            for t in TECHNIQUES:
                self.query(t, traced=False, record=False)
            rounds.append(time.perf_counter() - t0)
        return rounds

    def sweep_setup(self) -> float:
        """Generate the sweep corpus and make one untimed warm-up pass."""
        t0 = time.perf_counter()
        self.sets = self.sweep.corpus(tumbling=self.wl.tumbling_sweep)
        self.gen_ms = (time.perf_counter() - t0) * 1e3
        self.sweep_pass(traced=False, record=False)
        return time.perf_counter() - t0

    # -- timed operations ---------------------------------------------
    def query(self, technique: str, *, traced: bool, record: bool = True) -> None:
        """One full answer of one technique, checked against the oracle."""
        sc = self.spark.sparkContext
        gc.collect()
        self.attempted += 1
        group = f"{technique}-{self.attempted}"
        if traced:
            sc.setJobGroup(group, group)
        try:
            ans = self.sb.run_plan(technique, self.ev, self.wl.shape, self.agg)
        except Exception as e:  # noqa: BLE001 — a crashed query is a counted failure
            self._fail(f"{technique}: {type(e).__name__}: {e}", wrong=False)
            return
        finally:
            if traced:
                sc.setLocalProperty("spark.jobGroup.id", None)
        suffix = ".traced" if traced else ""
        if record:
            self._sample(f"{technique}_s{suffix}", ans.total_s)
        if traced:
            self._sample(f"engine.{technique}.build_ms", ans.build_s * 1e3)
            for c, v in self.counters.read(group).items():
                self._sample(f"spark.{technique}.{c}", v)
        if (why := self.sb.diff(ans.rows, self.expected)) is not None:
            self._fail(f"{technique}: {why}", wrong=True)

    def sweep_pass(self, *, traced: bool, record: bool = True) -> None:
        self.attempted += len(self.sets)
        gc.collect()
        if traced:
            p = self.sweep.traced_pass(self.sets, self.sweep_agg)
            self._sample("core.alg1_ms", p.alg1_ms)
            self._sample("core.optimize_ms", sum(p.optimize_ms))
            self._sample("slicing.sp_cost_ms", p.sp_cost_ms)
            self._sample("slicing.up_cost_ms", p.up_cost_ms)
        else:
            p = self.sweep.untraced_pass(self.sets, self.sweep_agg)
            if record:
                self._sample("sweep_s", p.sweep_s)
                self.samples.setdefault("optimize_ms", []).extend(p.optimize_ms)
        for msg in p.failures:
            self._fail(f"sweep: {msg}", wrong=True)

    def timed_loop(self, deadline: float) -> int:
        """Closed loop, one operation in flight: rounds of every technique
        in rotating order until ``deadline``.

        A traced run makes one round in which every operation runs twice,
        untraced and traced (alternating which goes first), to measure
        the tracing overhead, with a pair of sweep passes after every
        second query; its budget goes to the per-layer probes.
        """
        rounds = 0
        while rounds < MIN_ROUNDS[self.args.trace] or (
            not self.args.trace and time.perf_counter() < deadline
        ):
            for i, t in enumerate(TECHNIQUES[rounds % 4 :] + TECHNIQUES[: rounds % 4]):
                modes = ((False, True) if i % 2 == 0 else (True, False)) if self.args.trace else (False,)
                for traced in modes:
                    self.query(t, traced=traced)
                for traced in modes if self.args.trace and i % 2 else ():
                    self.sweep_pass(traced=traced)
            rounds += 1
        return rounds

    # -- probes run once, outside the timers -----------------------------
    def probe(self) -> None:
        attempted, crashed, broken = self.sweep.run_probe()
        self.attempted += attempted
        for msg in crashed:
            self._fail(f"probe: {msg}", wrong=False)
        for msg in broken:
            self._fail(f"probe: {msg}", wrong=True)
        self.report["probe"] = {"attempted": attempted, "crashed": len(crashed), "broken": len(broken)}

    def layer_probes(self) -> dict[str, float]:
        """Per-layer numbers that need their own executions: the model's
        costs, per-window operators, plan assignment counts, streaming."""
        from repro.core.factor import optimize
        from repro.core.mincost import find_min_cost_wcg

        sb, shape, agg = self.sb, self.wl.shape, self.agg
        ws = list(shape.windows)
        out: dict[str, float] = {}
        forests = {
            "bl": sb.bl_forest(shape, agg),
            "wcg": find_min_cost_wcg(ws, agg, shape.eta),
            "wcg_fw": optimize(ws, agg, shape.eta),
        }
        for t, m in forests.items():
            out[f"core.model_cost.{t}"] = m.total
        out["core.factor_windows"] = len(forests["wcg_fw"].factors)

        ce = []
        for _ in range(5):
            c0 = time.perf_counter()
            sb.sp_edges(shape)
            ce.append((time.perf_counter() - c0) * 1e3)
        out["slicing.composed_edges_ms"] = statistics.median(ce)

        t0 = time.perf_counter()
        windows = {}
        for t, m in forests.items():
            ops = sb.meter_plan(self.ev, m, agg, shape)
            windows[t] = ops
            out[f"engine.{t}.pairs_per_event"] = sum(o["pairs"] for o in ops) / shape.n_events
            for kind in ("root", "rollup"):
                group = f"{t}.{kind}"
                if group not in OP_GROUPS:
                    continue
                sel = [o for o in ops if o["kind"] == kind]
                for f in ("rows_in", "pairs", "rows_out", "s"):
                    out[f"op.{group}.{f}"] = sum(o[f] for o in sel)
                model = sum(o["model"] for o in sel)
                out[f"op.{group}.pairs_per_model"] = out[f"op.{group}.pairs"] / model if model else 0.0
        out["engine.sp.pairs_per_event"] = sb.sp_pairs(self.ev, shape, agg) / shape.n_events
        self.report["windows"] = windows
        self.report["meter_s"] = time.perf_counter() - t0

        streamed = self.report["streamed_plan"] = self.wl.streamed
        path = str(self.run_dir / "stream-input")
        sb.write_stream_input(self.spark, self.pdf, shape, path)
        stream = dict.fromkeys(STREAM_METRICS, None)
        self.attempted += 1
        try:
            drain_s, progress, why = sb.run_stream(
                self.spark, self.counters, path, forests[streamed], agg, self.expected, shape, "bench"
            )
        except Exception as e:  # noqa: BLE001 — a crashed drain is a counted failure
            self._fail(f"stream: {type(e).__name__}: {e}", wrong=False)
        else:
            stream.update(progress, drain_s=drain_s)
            if why is not None:
                self._fail(f"stream: {why}", wrong=True)
        out.update({f"stream.{k}": v for k, v in stream.items()})
        self.report["stream_s"] = time.perf_counter() - t0 - self.report["meter_s"]
        return out

    # -- results -----------------------------------------------------------
    def timings(self, suffix: str = "") -> dict[str, float | None]:
        """Median time of each technique's query (``suffix=".traced"`` for
        the traced repetitions)."""
        return {f"{t}_s": median(self.samples.get(f"{t}_s{suffix}", [])) for t in TECHNIQUES}

    def per_layer(self) -> dict[str, float | None]:
        out = self.layer_probes()
        first = self.setups[0]
        out["workloads.gen_ms"] = self.gen_ms
        out["streams.event_gen_s"] = first["event_gen_s"]
        keys = ["core.alg1_ms", "core.optimize_ms", "slicing.sp_cost_ms", "slicing.up_cost_ms"]
        keys += [f"engine.{t}.build_ms" for t in TECHNIQUES]
        keys += [f"spark.{t}.{c}" for t in TECHNIQUES for c in SPARK_COUNTERS]
        for k in keys:
            out[k] = median(self.samples.get(k, []))
        out["core.failures"] = sum(m.startswith(("sweep:", "probe:")) for m in self.failures)
        opt = self.samples.get("optimize_ms", [])
        out["core.sweep_s"] = median(self.samples.get("sweep_s", []))
        out["core.optimize_ms_p50"] = median(opt)
        out["core.optimize_ms_p90"] = p90(opt)
        untraced, traced = self.timings(), self.timings(".traced")
        for m, a in untraced.items():
            b = traced[m]
            out[f"trace.overhead.{m}"] = None if a is None or b is None else b - a
        return out

    def config(self) -> dict:
        sc = self.spark.sparkContext
        conf = self.spark.conf
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "events": self.wl.shape.n_events,
            "windows": [f"W({w.r},{w.s})" for w in self.wl.shape.windows],
            "aggregate": self.wl.shape.agg,
            "nproc": self.nproc,
            "master": sc.master,
            "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
            "aqe": conf.get("spark.sql.adaptive.enabled"),
            "driver_memory": sc.getConf().get("spark.driver.memory"),
            "spark": self.spark.version,
            "python": platform.python_version(),
            "java": sc._jvm.System.getProperty("java.version"),
            "git_commit": git_commit(),
            "source_digest": source_digest(),
        }

    def run(self) -> dict:
        if self.args.trace:
            self.report["sweep_setup_s"] = self.sweep_setup()
        for _ in range(1 if self.args.trace else SETUPS):
            self.setup()
        warmup_s = self.warm_up()
        self.report["config"] = self.config()
        self.report["setups"] = self.setups
        self.report["warmup_s"] = warmup_s
        t0 = time.perf_counter()
        self.report["rounds"] = self.timed_loop(t0 + self.args.seconds)
        self.report["timed_s"] = time.perf_counter() - t0
        if self.args.trace:
            self.probe()
            metrics, units = self.per_layer(), PER_LAYER
        else:
            setup_s = median([s["s"] for s in self.setups]) + warmup_s[0]
            metrics = {"setup_s": setup_s, **self.timings()}
            units = END_TO_END
        self.report["samples"] = {k: v for k, v in self.samples.items() if not k.startswith("optimize_ms")}
        self.report["failures"] = self.failures[:50]
        if set(metrics) != set(units):
            raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
        return {
            "correct": self.wrong == 0 and all(v is not None for v in metrics.values()),
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }

    def close(self) -> None:
        """Stop Spark and the JVM, and wait for every process they ran."""
        from pyspark import SparkContext

        gw = SparkContext._gateway
        proc = getattr(gw, "proc", None)
        pids = descendants(proc.pid) if proc is not None else []
        if self.spark is not None:
            self.spark.stop()
        if gw is not None:
            gw.shutdown()
            SparkContext._gateway = SparkContext._jvm = None
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        wait_gone(pids, timeout=30)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    check_checkout()
    nproc = len(os.sched_getaffinity(0))
    run_dir = WORK / f"run-{os.getpid()}"
    launch_env(run_dir, nproc)
    try:
        from spark_bench import WORKLOADS

        if args.workload not in WORKLOADS:
            sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        bench = Bench(args, WORKLOADS[args.workload], nproc, run_dir)
        try:
            result = bench.run()
        finally:
            bench.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**bench.report, "result": result}, indent=2, default=str))
    print("config " + json.dumps(bench.report["config"], default=str))
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']!s:>24} {m['unit']}")
    print(
        f"fail_ratio {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / result['attempted']:.4f}   report: {out.relative_to(ROOT)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
