#!/usr/bin/env python3
"""The repo's benchmark: live 4-node cluster + simulator, named workloads.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--out FILE]

Runs one workload (or, without ``--workload``, every one in turn), checks
the program's outputs, prints every metric by name with its unit, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` (the default) reports the end-to-end metrics from a run
with no instrumentation at all; ``--trace 1`` repeats the workload with
the benchmark's own timing wrappers installed around the layers' public
functions and reports the per-layer metrics instead.  Exit status is 0
only when every output check passed.

See README.md in this directory for why each workload and input exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Per-run data directories (WALs, snapshots, probe tables) live here, on
#: the checkout's own filesystem, and are removed when the run ends.
SCRATCH = ROOT / ".bench_e2e_tmp"


def _scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob: inputs come from workloads.py alone."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Dispatch one workload to its runner; returns a ``RunResult``."""
    from workloads import WORKLOADS_BY_NAME, LiveWorkload

    workload = WORKLOADS_BY_NAME[name]
    if isinstance(workload, LiveWorkload):
        from live_runner import run_live

        scratch = SCRATCH / f"{name}.{os.getpid()}"
        scratch.mkdir(parents=True)
        try:
            return run_live(workload, seed, seconds, trace, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            if not any(SCRATCH.iterdir()):
                SCRATCH.rmdir()
    from sim_runner import run_sim

    return run_sim(workload, seed, seconds, trace)


def report(result) -> Dict[str, object]:
    """Print one run's context and metrics; return its JSON summary.

    Every metric of the run's kind is present: one a workload's layers do
    not produce reads 0 (end-to-end metrics are never 0 by construction).
    """
    from workloads import END_TO_END, PER_LAYER

    catalogue = PER_LAYER if result.traced else END_TO_END
    kind = "per-layer (traced)" if result.traced else "end-to-end (untraced)"
    print(f"== {result.workload}: {kind}")
    for line in result.notes:
        print(f"   {line}")
    unknown = set(result.metrics) - {metric.name for metric in catalogue}
    if unknown:
        result.fail(f"runner produced metrics outside the catalogue: {sorted(unknown)}")
    metrics = {}
    for metric in catalogue:
        value = float(result.metrics.get(metric.name, 0.0))
        metrics[metric.name] = {"value": value, "unit": metric.unit}
        print(f"   {metric.name:<44} {value:>16.4f} {metric.unit}")
    for violation in result.violations:
        print(f"   CHECK FAILED: {violation}")
    print(
        f"   attempted={result.attempted} failed={result.failed} "
        f"correct={str(result.correct).lower()}"
    )
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line, run, print; 0 only if every check passed."""
    _scrub_environment()
    # Told to stop, unwind instead of dying: every ``finally`` that stops a
    # cluster runs, and ``child.py`` reaps whatever is left at exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS_BY_NAME

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--out", default=None, help="also write the JSON summary here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = [args.workload] if args.workload else list(WORKLOADS_BY_NAME)
    summaries = {
        name: report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        for name in names
    }
    summary = summaries[args.workload] if args.workload else summaries
    line = json.dumps(summary)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    correct = all(entry["correct"] for entry in summaries.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
