"""CI entry point: every gate (``python -m repro.gate --all``), then the
docs check (``python -m repro.doccheck``).

The exit status is non-zero when *any* gate or the docs check fails, so CI
catches perf, recovery, adversary-robustness, partition-tolerance,
reconfiguration, live-backend, observability and documentation regressions
in one step.  What each gate runs and claims: docs/SCENARIOS.md, "Gates".

Usage::

    PYTHONPATH=src python benchmarks/run_perf_smoke.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.doccheck import main as doccheck_main  # noqa: E402
from repro.gate.table import main as gate_main  # noqa: E402

if __name__ == "__main__":
    gate_status = gate_main(["--all"])
    doc_status = doccheck_main([])
    sys.exit(gate_status or doc_status)
