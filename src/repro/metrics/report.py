"""Formatting helpers for benchmark output.

The benchmark harness prints, for every paper table and figure, the same
rows/series the paper reports.  These helpers keep that output consistent
and readable inside pytest-benchmark logs.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, points: Sequence[Tuple[float, float]], unit_x: str = "s", unit_y: str = "req/s") -> str:
    """Render a (time, value) series as compact text."""
    body = ", ".join(f"{x:.1f}{unit_x}:{y:.0f}" for x, y in points)
    return f"{name}: [{body}] ({unit_y})"


def speedup(new: float, old: float) -> float:
    """Throughput improvement factor, guarding against division by zero."""
    if old <= 0:
        return float("inf") if new > 0 else 1.0
    return new / old


def print_banner(title: str) -> None:
    """Print ``title`` framed by ``=`` rules (benchmark/CLI section header)."""
    line = "=" * max(30, len(title) + 4)
    print(f"\n{line}\n  {title}\n{line}")
