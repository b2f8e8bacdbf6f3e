"""Figure 5 — peak throughput vs number of nodes.

Paper result: at 128 nodes ISS improves peak throughput of PBFT, HotStuff and
Raft by 37x, 56x and 55x respectively; single-leader throughput decays
roughly as 1/n while ISS stays flat or grows; ISS-PBFT also outperforms
Mir-BFT slightly.

This benchmark reproduces the *shape* at simulation scale (see the module
docstring of ``repro.harness.scenarios``): single-leader peak throughput falls as nodes are added, the
ISS variants sustain their throughput, and the ISS/single-leader improvement
factor grows with the node count.

Run as a script, this file additionally times the simulator over the
Figure-5 node counts — events executed and events per wall-second at each
``n`` — and writes ``BENCH_fig5.json``::

    PYTHONPATH=src python benchmarks/bench_fig5_scalability.py [--reps N]
"""

import argparse
import gc
import json
import sys
import time

import pytest

from repro.core.config import PROTOCOL_HOTSTUFF, PROTOCOL_PBFT, PROTOCOL_RAFT
from repro.harness import scenarios
from repro.metrics.report import format_table, print_banner, speedup

from conftest import run_scenario, scaled_duration, scaled_nodes

#: Offered loads swept per point; the peak before saturation is reported.
OFFERED_LOADS = (800.0, 1600.0)


def _print_rows(rows):
    print_banner("Figure 5: peak throughput (req/s) vs number of nodes")
    print(
        format_table(
            ["system", "protocol", "nodes", "peak tput (req/s)", "offered (req/s)", "latency at peak (s)"],
            [
                [r["system"], r["protocol"], r["nodes"], f"{r['peak_throughput']:.0f}",
                 f"{r['at_offered_load']:.0f}", f"{r['latency_at_peak']:.2f}"]
                for r in rows
            ],
        )
    )


def _improvement(rows, protocol, nodes):
    iss = next(r for r in rows if r["system"] == "iss" and r["protocol"] == protocol and r["nodes"] == nodes)
    single = next(r for r in rows if r["system"] == "single" and r["protocol"] == protocol and r["nodes"] == nodes)
    return speedup(iss["peak_throughput"], single["peak_throughput"])


def test_fig5_pbft_scalability(benchmark):
    nodes = scaled_nodes((4, 8, 16))
    rows = run_scenario(
        benchmark,
        lambda: scenarios.scalability_sweep(
            node_counts=nodes,
            protocols=(PROTOCOL_PBFT,),
            offered_loads=OFFERED_LOADS,
            duration=scaled_duration(5.0),
            include_mirbft=True,
        ),
        "fig5-pbft",
    )
    _print_rows(rows)
    largest = max(nodes)
    smallest = min(nodes)
    factor_large = _improvement(rows, PROTOCOL_PBFT, largest)
    factor_small = _improvement(rows, PROTOCOL_PBFT, smallest)
    print(f"\nISS-PBFT / PBFT improvement: {factor_small:.1f}x at n={smallest}, "
          f"{factor_large:.1f}x at n={largest} (paper: 37x at n=128)")
    benchmark.extra_info["improvement_at_largest_n"] = factor_large

    singles = {r["nodes"]: r["peak_throughput"] for r in rows if r["system"] == "single"}
    iss = {r["nodes"]: r["peak_throughput"] for r in rows if r["system"] == "iss"}
    # Shape assertions: the single leader decays with n, ISS does not, and the
    # improvement factor grows with the node count.
    assert singles[largest] < singles[smallest]
    assert iss[largest] > 0.7 * iss[smallest]
    assert factor_large > factor_small
    assert factor_large > 1.5


def test_fig5_hotstuff_scalability(benchmark):
    nodes = scaled_nodes((4, 8))
    rows = run_scenario(
        benchmark,
        lambda: scenarios.scalability_sweep(
            node_counts=nodes,
            protocols=(PROTOCOL_HOTSTUFF,),
            offered_loads=OFFERED_LOADS,
            duration=scaled_duration(5.0),
            include_mirbft=False,
        ),
        "fig5-hotstuff",
    )
    _print_rows(rows)
    largest = max(nodes)
    factor = _improvement(rows, PROTOCOL_HOTSTUFF, largest)
    print(f"\nISS-HotStuff / HotStuff improvement at n={largest}: {factor:.1f}x (paper: 56x at n=128)")
    assert factor > 1.0


def test_fig5_raft_scalability(benchmark):
    nodes = scaled_nodes((4, 8))
    rows = run_scenario(
        benchmark,
        lambda: scenarios.scalability_sweep(
            node_counts=nodes,
            protocols=(PROTOCOL_RAFT,),
            offered_loads=OFFERED_LOADS,
            duration=scaled_duration(5.0),
            include_mirbft=False,
        ),
        "fig5-raft",
    )
    _print_rows(rows)
    largest = max(nodes)
    factor = _improvement(rows, PROTOCOL_RAFT, largest)
    print(f"\nISS-Raft / Raft improvement at n={largest}: {factor:.1f}x (paper: 55x at n=128)")
    assert factor > 1.0


# ----------------------------------------------------------------------------
# Node-count sweep CLI: simulator events/s over the Fig. 5 node counts.
# ----------------------------------------------------------------------------

#: Full Figure-5 sweep (paper scale).
NODE_COUNTS = (8, 16, 32, 64, 128)
#: Timed repetitions per node count (min is reported).
DEFAULT_REPS = 3
#: Virtual seconds and offered load of every datapoint.
DURATION = 3.0
RATE = 300.0

OUTPUT_PATH = "BENCH_fig5.json"


def _deployment(num_nodes):
    """One Fig. 5 datapoint: recovery-armed ISS-PBFT on the 8-region WAN."""
    from repro.harness.runner import Deployment

    return Deployment(
        config=scenarios.chaos_config("pbft", num_nodes, random_seed=1),
        network_config=scenarios.wan_regions(min(8, num_nodes)),
        workload=scenarios._workload(rate=RATE, duration=DURATION, clients=8),
        recovery_poll=0.25,
        probe_stagger=0.5,
    )


def _timed_run(num_nodes):
    """Build and run one deployment; returns (wall_seconds, figures).

    GC is disabled around the timed region (the ``timeit`` convention):
    collector pauses otherwise dominate run-to-run differences.
    """
    deployment = _deployment(num_nodes)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        result = deployment.run()
    finally:
        if gc_was_enabled:
            gc.enable()
    wall = time.perf_counter() - start
    return wall, {
        "events": deployment.sim.events_executed,
        "virtual_throughput_rps": result.report.completed / DURATION,
    }


def sweep_nodes(node_counts, reps=DEFAULT_REPS):
    """Time the simulator at each node count.

    Returns one row per node count: events executed, the virtual
    (simulated) request throughput, wall time (min over reps) and
    events per wall-second.
    """
    rows = []
    for num_nodes in node_counts:
        walls = []
        for _ in range(reps):
            wall, figures = _timed_run(num_nodes)
            walls.append(wall)
        best = min(walls)
        row = {
            "nodes": num_nodes,
            **figures,
            "wall_seconds": round(best, 3),
            "events_per_sec": round(figures["events"] / best, 1),
            "all_wall_seconds": [round(w, 3) for w in walls],
        }
        rows.append(row)
        print(
            f"n={num_nodes:4d}  events={row['events']:9d}  "
            f"wall={row['wall_seconds']:8.3f} s  "
            f"{row['events_per_sec']:9.0f} ev/s"
        )
    return rows


def main(argv=None):
    """CLI entry point: node-count sweep → BENCH_fig5.json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reps", type=int, default=DEFAULT_REPS, help="timed reps per node count"
    )
    parser.add_argument(
        "--output", default=OUTPUT_PATH, help=f"JSON output path (default {OUTPUT_PATH})"
    )
    args = parser.parse_args(argv)

    print_banner(f"Fig. 5 node-count sweep: nodes {NODE_COUNTS}, {args.reps} rep(s) each")
    started = time.time()
    rows = sweep_nodes(NODE_COUNTS, reps=args.reps)
    payload = {
        "benchmark": "fig5-node-count-sweep",
        "scenario": {
            "protocol": "pbft",
            "network": "wan_regions (8-region geo-latency matrix)",
            "workload_rps": RATE,
            "duration_virtual_s": DURATION,
            "recovery_armed": True,
            "seed": 1,
        },
        "methodology": (
            f"per node count: {args.reps} rep(s), GC disabled during timed "
            "regions, min wall reported"
        ),
        "wall_clock_total_s": round(time.time() - started, 1),
        "rows": rows,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
