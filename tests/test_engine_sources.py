"""Source checks on the Spark engine that need no Spark: no Python UDF
sits on a hot path, so every operator stays inside Catalyst and the JVM,
and no call uncaches the caller's input."""
import ast
from pathlib import Path

import pytest

ENGINE = Path(__file__).resolve().parent.parent / "src" / "repro" / "engine"
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
