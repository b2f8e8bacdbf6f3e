"""The figure benchmarks stay in step with the library they drive.

``benchmarks/bench_*.py`` regenerate the paper's figures under
pytest-benchmark and are not part of tier-1, so renaming or removing a
scenario function would break them silently.  This imports every module
(with ``benchmarks/`` on ``sys.path`` and its ``conftest`` as the
``conftest`` they import) and checks that every ``scenarios.<name>`` a
module reads — or imports from :mod:`repro.harness.scenarios` — exists.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.harness import scenarios

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
MODULES = sorted(BENCH_DIR.glob("bench_*.py"))


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenario_names(source: str):
    """Every ``scenarios.<name>`` read and every name imported from
    ``repro.harness.scenarios`` in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "scenarios"
        ):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.harness.scenarios":
            names.update(alias.name for alias in node.names)
    return names


def test_every_figure_module_is_checked():
    assert len(MODULES) >= 15
    assert "byzantine_leader_sweep" in scenario_names(
        (BENCH_DIR / "bench_fig13_byzantine.py").read_text()
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_figure_benchmark_imports_and_its_scenarios_exist(path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setitem(
        sys.modules, "conftest", _load(BENCH_DIR / "conftest.py", "conftest")
    )
    _load(path, f"figure_benchmark_{path.stem}")
    missing = sorted(
        name
        for name in scenario_names(path.read_text())
        if not hasattr(scenarios, name)
    )
    assert not missing, f"{path.name} uses missing scenario names {missing}"
