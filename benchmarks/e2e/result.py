"""What one run of one workload hands back to the command line."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class RunResult:
    """Metrics by name, the operation counts, and the output checks' verdict."""

    workload: str
    traced: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Live: ops due or submitted inside the measured window.  Sim: reps.
    attempted: int = 0
    failed: int = 0
    #: Output-check failures; any entry makes the run incorrect.
    violations: List[str] = field(default_factory=list)
    #: Human-readable context printed above the metrics.
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """True when every output check passed."""
        return not self.violations

    def note(self, line: str) -> None:
        """Add one line of context to the printed report."""
        self.notes.append(line)

    def fail(self, reason: str) -> None:
        """Record an output-check failure (once per distinct reason)."""
        if reason not in self.violations:
            self.violations.append(reason)


def layer_rows(table: Dict[str, object], ops: int) -> Dict[str, float]:
    """Two rows per probed layer: entries and self microseconds, per op."""
    rows: Dict[str, float] = {}
    for layer, row in table["layers"].items():
        rows[f"{layer}.calls_per_op"] = row["calls"] / ops
        rows[f"{layer}.self_us_per_op"] = row["self_s"] * 1e6 / ops
    return rows
