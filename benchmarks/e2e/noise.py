#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric (the README's noise protocol).

    python3 benchmarks/e2e/noise.py [--runs 10] [--first-seed 1] [--seconds N]
                                    [--out FILE] [workload ...]

Runs each workload ``--runs`` times through ``run.py``, each time with
another seed, and prints per metric the median and the distance between
the first and third quartile as a share of the median — the figure a
bound in ``BENCHMARK.json`` has to stay above.  Run it twice and compare
the medians before trusting a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import iqr_share  # noqa: E402
from workloads import WORKLOADS_BY_NAME  # noqa: E402


def main() -> int:
    """Run the sets, print the spreads; 1 if any run failed its checks."""
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="default: those in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--out", default=None, help="write every run's summary here")
    args = parser.parse_args()
    names = args.workloads or [workload["name"] for workload in declared["workloads"]]
    unknown = sorted(set(names) - set(WORKLOADS_BY_NAME))
    if unknown:
        parser.error(f"unknown workloads: {unknown}")

    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    summaries: Dict[str, List[dict]] = {}
    failed = False
    for name in names:
        runs = summaries.setdefault(name, [])
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                ],
                capture_output=True, text=True,
            )
            if done.returncode != 0:
                failed = True
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
                continue
            summary = json.loads(done.stdout.splitlines()[-1])
            runs.append(summary)
            values = " ".join(
                f"{metric}={entry['value']:.4g}" for metric, entry in summary["metrics"].items()
            )
            print(f"{name} seed {seed}: failed={summary['failed']} {values}", flush=True)
        if len(runs) < 2:
            continue
        print(f"--- {name}: {len(runs)} runs")
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            spread = iqr_share(values)
            flag = "" if spread <= bound or metric == "setup_s" else "  > bound"
            print(
                f"    {metric:<16} median={statistics.median(values):12.4f} "
                f"iqr_share={spread:6.3f} bound={bound:.2f}{flag}",
                flush=True,
            )
    if args.out:
        Path(args.out).write_text(json.dumps(summaries) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
