#!/usr/bin/env python3
"""Paired runs of the repo benchmark on two trees: a parent and a change.

    python3 benchmarks/paired.py PARENT_TREE CHANGE_TREE --workload W
                                 [--pairs 10] [--seed 1] [--seconds N]
                                 [--trace 0|1] [--out FILE]

Each pair runs ``benchmarks/e2e/run.py`` of both trees as subprocesses,
one after the other; which tree goes first alternates from pair to pair, so
a host whose speed drifts charges both sides alike.  For every metric of
the run's kind (end-to-end, or per-layer with ``--trace 1``) it prints, as
a Markdown table, the median [first, third quartile] of each side, the
change/parent ratio of the medians, the pairs the change won, and whether
the medians lie further apart than the parent's interquartile distance;
then failed ops and ``correct`` for every run.  ``--out`` writes every run
as one JSON row.

Prepare both trees the same way (for example ``git archive`` of each
commit), or a tree with stale or missing bytecode pays for compiling in
``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` by ``statistics.quantiles(n=4)``, the acceptance
    arithmetic; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def by_pair(rows: List[dict]) -> Dict[int, Dict[str, dict]]:
    """Pair index -> side -> row, in pair order."""
    pairs: Dict[int, Dict[str, dict]] = {}
    for row in rows:
        pairs.setdefault(row["pair"], {})[row["side"]] = row
    return dict(sorted(pairs.items()))


def summarize(rows: List[dict], better: Dict[str, str]) -> List[dict]:
    """Per metric: each side's quartiles, the ratio, pairs won, clear or not.

    ``rows`` are the runs as :func:`run_pair` records them; ``better`` maps
    each metric to ``"lower"`` or ``"higher"``.  A pair is won when the
    change's value is strictly better than the parent's in that pair; the
    difference is clear when the medians lie further apart than the
    parent's interquartile distance.
    """
    pairs = [pair for pair in by_pair(rows).values() if len(pair) == 2]
    summary = []
    for name, direction in better.items():
        if not all(name in pair[side]["metrics"] for pair in pairs for side in SIDES):
            continue
        values = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        parent, change = (quartiles(values[side]) for side in SIDES)
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(
            sign * (pair["parent"]["metrics"][name] - pair["change"]["metrics"][name]) > 0
            for pair in pairs
        )
        summary.append({
            "metric": name,
            "parent": parent,
            "change": change,
            "ratio": change[1] / parent[1] if parent[1] else float("nan"),
            "won": won,
            "pairs": len(pairs),
            "clear": abs(change[1] - parent[1]) > parent[2] - parent[0],
        })
    return summary


def run_tree(tree: Path, args: argparse.Namespace) -> dict:
    """One benchmark run of ``tree``; its JSON summary."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "summary.json"
        command = [
            sys.executable, "benchmarks/e2e/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out),
        ]
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
        if not out.exists():
            sys.exit(f"{tree}: run.py wrote no summary (exit {done.returncode})\n"
                     f"{done.stderr[-2000:]}")
        return json.loads(out.read_text())


def run_pair(index: int, trees: Dict[str, Path], args: argparse.Namespace) -> List[dict]:
    """Run both trees once, the parent first on even pairs; one row each."""
    order = SIDES if index % 2 == 0 else SIDES[::-1]
    rows = []
    for position, side in enumerate(order):
        result = run_tree(trees[side], args)
        rows.append({
            "pair": index,
            "side": side,
            "first": position == 0,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: cell["value"] for name, cell in result["metrics"].items()},
        })
    return rows


def print_report(rows: List[dict], summary: List[dict], units: Dict[str, str]) -> None:
    """The Markdown tables: metrics, then every run's failed/correct."""
    print("| metric | parent median [q1, q3] | change median [q1, q3] | ratio | won | clear |")
    print("|---|---|---|---|---|---|")
    for entry in summary:
        cells = [
            "{1:.4g} [{0:.4g}, {2:.4g}]".format(*entry[side]) for side in SIDES
        ]
        print(
            f"| `{entry['metric']}` ({units[entry['metric']]}) | {cells[0]} | {cells[1]} "
            f"| {entry['ratio']:.3f}x | {entry['won']}/{entry['pairs']} "
            f"| {'yes' if entry['clear'] else 'no'} |"
        )
    print()
    print("| pair | first | parent failed / correct | change failed / correct |")
    print("|---|---|---|---|")
    for index, pair in by_pair(rows).items():
        first = next(side for side, row in pair.items() if row["first"])
        cells = [
            f"{pair[side]['failed']} / {str(pair[side]['correct']).lower()}"
            for side in SIDES
        ]
        print(f"| {index + 1} | {first} | {cells[0]} | {cells[1]} |")


def main(argv=None) -> int:
    """Run the pairs, print the tables; 1 if any run read ``correct=false``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent commit's tree")
    parser.add_argument("change", type=Path, help="the change's tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run's row here (JSON)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    catalogue = declared["per_layer" if args.trace else "end_to_end"]
    better = {metric["name"]: metric["better"] for metric in catalogue}
    units = {metric["name"]: metric["unit"] for metric in catalogue}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    rows: List[dict] = []
    for index in range(args.pairs):
        rows.extend(run_pair(index, trees, args))
        print(f"pair {index + 1}/{args.pairs} done", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1) + "\n")
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{args.pairs} alternating pairs, {kind}\n")
    print_report(rows, summarize(rows, better), units)
    return 0 if all(row["correct"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
