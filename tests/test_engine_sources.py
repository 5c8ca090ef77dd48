"""Source checks that need no Spark: no Python UDF sits on a hot path of
the engine, so every operator stays inside Catalyst and the JVM; no
engine call uncaches the caller's input; building a plan starts no
Spark job; and every name the benchmark and job scripts import from the
package still exists."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "src" / "repro" / "engine"
SCRIPTS = sorted(p for d in ("perfbench", "benchmarks", "jobs") for p in (ROOT / d).glob("*.py"))
PYTHON_UDFS = {"mapInPandas", "applyInPandas", "pandas_udf", "udf"}


def _udf_uses(path: Path) -> list[str]:
    """Every name, attribute or import of a Python UDF entry point in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        if name in PYTHON_UDFS:
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    return found


@pytest.mark.parametrize("path", sorted(ENGINE.glob("*.py")), ids=lambda p: p.name)
def test_engine_calls_no_python_udf(path):
    assert _udf_uses(path) == []


def test_check_finds_a_python_udf(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from pyspark.sql.functions import pandas_udf\n"
        "def f(df):\n    return df.mapInPandas(g, schema=s).select(F.udf(h)('v'))\n"
    )
    assert [u.split(": ")[1] for u in _udf_uses(src)] == ["pandas_udf", "mapInPandas", "udf"]


def _uncaching_calls(path: Path) -> list[str]:
    """Every call in ``path`` that uncaches the DataFrame it reads, as
    Spark 4.1 does: pyspark's ``catalog.dropTempView``, and ``sql(…)``
    with keyword arguments, which bind DataFrames (only ``args=`` binds
    literal parameters). The session catalog's own ``dropTempView``,
    reached as ``….catalog().dropTempView``, leaves the cache alone."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        f = node.func
        drops = f.attr == "dropTempView" and getattr(f.value, "attr", None) == "catalog"
        binds = f.attr == "sql" and any(k.arg != "args" for k in node.keywords)
        if drops or binds:
            found.append(f"{path.name}:{node.lineno}: {f.attr}")
    return found


@pytest.mark.parametrize("path", sorted(ENGINE.glob("*.py")), ids=lambda p: p.name)
def test_engine_keeps_the_callers_cache(path):
    assert _uncaching_calls(path) == []


def test_check_finds_an_uncaching_call(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "def f(spark, df, frames):\n"
        "    spark.catalog.dropTempView('v')\n"
        "    spark.sql('SELECT * FROM {df}', df=df)\n"
        "    spark.sql('SELECT * FROM {a}', **frames)\n"
        "    spark._jsparkSession.sessionState().catalog().dropTempView('v')\n"
        "    return spark.sql('SELECT :x', args={'x': 1})\n"
    )
    assert _uncaching_calls(src) == [
        "probe.py:2: dropTempView", "probe.py:3: sql", "probe.py:4: sql"
    ]


#: Calls that run a Spark job (or wait on a streaming query).
ACTIONS = {"collect", "first", "count", "take", "head", "toPandas", "awaitTermination"}
#: The functions that run one on purpose: a metering count, and the
#: streaming run that waits for its queries to drain.
ACTION_OWNERS = {("rollup.py", "assignment_count"), ("streaming.py", "run_streaming_plan")}


def _actions(path: Path) -> list[str]:
    """Every call of a Spark action in ``path`` outside :data:`ACTION_OWNERS`."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ACTIONS and (path.name, owner) not in ACTION_OWNERS):
            found.append(f"{path.name}:{node.lineno}: {node.func.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


@pytest.mark.parametrize("path", sorted(ENGINE.glob("*.py")), ids=lambda p: p.name)
def test_engine_plans_stay_lazy(path):
    assert _actions(path) == []


def test_check_finds_a_spark_action(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "def build(df):\n"
        "    n = df.agg(F.max('tick')).first()[0]\n"
        "    return df.limit(n).toPandas(), df.count()\n"
        "def assignment_count(df):\n    return df.collect()\n"
    )
    assert _actions(src) == ["probe.py:2: first", "probe.py:3: toPandas", "probe.py:3: count",
                             "probe.py:5: collect"]


def _unresolved_imports(path: Path) -> list[str]:
    """Every ``from repro… import name`` in ``path`` whose module is gone,
    or whose module neither binds ``name`` nor has it as a submodule."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "repro"):
            continue
        try:
            mod = importlib.import_module(node.module)
        except ImportError:
            found.append(f"{path.name}:{node.lineno}: {node.module}")
            continue
        for a in node.names:
            if not (hasattr(mod, a.name) or hasattr(mod, "__path__")
                    and importlib.util.find_spec(f"{node.module}.{a.name}")):
                found.append(f"{path.name}:{node.lineno}: {node.module}.{a.name}")
    return found


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports_resolve(path):
    assert _unresolved_imports(path) == []


def test_check_finds_an_unresolved_import(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from repro import synth_data, gone\n"
        "from repro.core.windows import Window, gone\n"
        "def f():\n    from repro.core.gone import x\n"
    )
    assert _unresolved_imports(src) == [
        "probe.py:1: repro.gone", "probe.py:2: repro.core.windows.gone",
        "probe.py:4: repro.core.gone",
    ]
