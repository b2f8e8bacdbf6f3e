"""Hot-path performance smoke test (``python -m repro.perf_smoke``).

Runs the canonical profiling scenario — 8 ISS nodes, 16 clients pushing an
aggregate 2,000 req/s for 10 virtual seconds over the simulated 1 Gbps WAN —
twice: once with wire batching disabled and once with the batched-vote
configuration (``NetworkConfig.batch_flush_interval = 20 ms``, see
:mod:`repro.runtime.wire`).  For each run it records how fast the *simulator
itself* ran (wall-clock time, events per second of wall time, requests
completed per second of wall time) plus the wire-message counters, and
derives the message/event reduction the batching layer achieves.  The result
is written to ``BENCH_hotpath.json`` so the perf trajectory is tracked
across PRs (see PERF.md for the methodology).

The script fails loudly (exit code 1) when the batched run no longer cuts
total wire messages by at least ``MIN_MESSAGE_REDUCTION`` (this check is
deterministic: message counts do not depend on machine speed).  Speed
regressions on this scenario are gated by the repo benchmark's ``sim_n8``
workload (``benchmarks/e2e``), not here.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from .core.config import ISSConfig, NetworkConfig, WorkloadConfig
from .harness.runner import Deployment
from .harness.scenarios import DEFAULT_FLUSH_INTERVAL
from .obs import ObsConfig
from .smokelib import print_figures

#: The profiling scenario (keep in sync with PERF.md).
SCENARIO = dict(
    num_nodes=8,
    random_seed=42,
    num_clients=16,
    total_rate=2000.0,
    duration=10.0,
)

#: Flush tick of the batched-vote run (seconds) — the single source of truth
#: is the figure benchmarks' default, so the two batched configurations
#: cannot drift apart.  Note the env var ``REPRO_FLUSH_INTERVAL`` does *not*
#: affect this scenario; its counters must be environment-stable.
BATCH_FLUSH_INTERVAL = DEFAULT_FLUSH_INTERVAL

#: Minimum fraction of wire messages batching must save on the scenario.
MIN_MESSAGE_REDUCTION = 0.30


def build_deployment(
    batch_flush_interval: float = 0.0, obs: Optional[ObsConfig] = None
) -> Deployment:
    """Build the profiling-scenario deployment (optionally wire-batched).

    Observability is pinned off by default — the wall-clock figures must
    not move with ``REPRO_TRACE*`` env vars; ``repro.obs_smoke`` passes an
    enabled ``obs`` to measure the tracing overhead on this same scenario.
    """
    config = ISSConfig(num_nodes=SCENARIO["num_nodes"], random_seed=SCENARIO["random_seed"])
    workload = WorkloadConfig(
        num_clients=SCENARIO["num_clients"],
        total_rate=SCENARIO["total_rate"],
        duration=SCENARIO["duration"],
    )
    network_config = NetworkConfig(batch_flush_interval=batch_flush_interval)
    return Deployment(
        config=config,
        workload=workload,
        network_config=network_config,
        obs=obs if obs is not None else ObsConfig.disabled(),
    )


def _run_once(batch_flush_interval: float) -> Dict[str, float]:
    deployment = build_deployment(batch_flush_interval)
    start = time.perf_counter()
    result = deployment.run()
    wall = time.perf_counter() - start
    report = result.report
    events = deployment.sim.events_executed
    stats = deployment.network.stats
    return {
        "wall_time_s": round(wall, 4),
        "events_executed": events,
        "events_per_wall_sec": round(events / wall, 1),
        "requests_submitted": report.submitted,
        "requests_completed": report.completed,
        "requests_per_wall_sec": round(report.completed / wall, 1),
        "virtual_duration_s": SCENARIO["duration"],
        "messages_sent": stats.messages_sent,
        "bytes_sent": stats.bytes_sent,
        "batches_sent": stats.batches_sent,
        "payloads_batched": stats.payloads_batched,
        "virtual_throughput_rps": round(report.throughput, 1),
    }


def run_smoke() -> Dict[str, object]:
    """Run the scenario unbatched and batched; return the combined figures.

    The top-level keys describe the unbatched run; the batched run and the
    derived reductions live under ``batched``.
    """
    figures: Dict[str, object] = dict(_run_once(0.0))
    batched = _run_once(BATCH_FLUSH_INTERVAL)
    figures["batched"] = batched
    figures["batch_flush_interval_s"] = BATCH_FLUSH_INTERVAL
    figures["message_reduction"] = round(
        1.0 - batched["messages_sent"] / figures["messages_sent"], 4
    )
    figures["event_reduction"] = round(
        1.0 - batched["events_executed"] / figures["events_executed"], 4
    )
    return figures


def check_message_reduction(figures: Dict[str, object]) -> Optional[str]:
    """Return an error string when batching saves too few wire messages."""
    reduction = float(figures.get("message_reduction", 0.0))
    if reduction < MIN_MESSAGE_REDUCTION:
        return (
            f"BATCHING REGRESSION: the batched-vote run cut wire messages by "
            f"only {reduction:.1%}, below the required "
            f"{MIN_MESSAGE_REDUCTION:.0%} "
            f"(unbatched {figures['messages_sent']}, "
            f"batched {figures['batched']['messages_sent']})"
        )
    return None


def main(argv: Optional[list] = None) -> int:
    """CLI entry point: run the smoke scenarios, write JSON, apply the check."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_hotpath.json",
        help="where to write the result JSON (default: ./BENCH_hotpath.json)",
    )
    args = parser.parse_args(argv)

    print(
        f"perf smoke: {SCENARIO['num_nodes']} nodes, "
        f"{SCENARIO['total_rate']:.0f} req/s, {SCENARIO['duration']:.0f}s virtual, "
        f"unbatched + batched ({BATCH_FLUSH_INTERVAL * 1000:.0f} ms flush) ..."
    )
    figures = run_smoke()
    print_figures(figures)

    Path(args.output).write_text(json.dumps(figures, indent=2) + "\n")
    print(f"wrote {args.output}")

    reduction_error = check_message_reduction(figures)
    if reduction_error is not None:
        print(reduction_error, file=sys.stderr)
        return 1
    print(
        f"batching check ok ({figures['message_reduction']:.1%} fewer wire "
        f"messages, floor {MIN_MESSAGE_REDUCTION:.0%})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
