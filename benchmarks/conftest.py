"""Shared helpers for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper's
evaluation: it runs the corresponding scenario from
:mod:`repro.harness.scenarios` once (pytest-benchmark measures the wall-clock
cost of regenerating the artefact), prints the same rows/series the paper
reports, and attaches the structured results to ``benchmark.extra_info`` so
they survive in the JSON output.

Scaling: all scenarios run on the scaled-down simulated WAN described in
the module docstring of :mod:`repro.harness.scenarios`.  ``REPRO_BENCH_SCALE``
multiplies node counts and durations (default 2 since the hot-path overhaul
and the wire-batching layer made larger runs affordable) — the suite's one
environment dial; see the table in PERF.md.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.harness.scenarios import bench_scale  # noqa: E402


def run_scenario(benchmark, fn: Callable, label: str):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    result_holder = {}

    def once():
        result_holder["result"] = fn()
        return result_holder["result"]

    benchmark.pedantic(once, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = label
    return result_holder["result"]


def scale() -> float:
    """Benchmark scale factor (shared with :mod:`repro.harness.scenarios`)."""
    return bench_scale()


def scaled_nodes(base: Sequence[int]) -> List[int]:
    """Scale a list of node counts by REPRO_BENCH_SCALE (keeping them distinct)."""
    factor = scale()
    scaled = sorted({max(4, int(round(n * factor))) for n in base})
    return scaled


def scaled_duration(base: float) -> float:
    return base * scale()
