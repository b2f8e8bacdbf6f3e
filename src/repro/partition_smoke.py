"""Network-chaos smoke test (``python -m repro.partition_smoke``).

Runs the pinned partition scenario — 4 PBFT nodes over the scaled WAN with
wire batching on, node 3 cut off from the majority between t=3 and t=9
while the 2→1 link drops 20 % of its payloads for the whole run (riding a
reliable transport: lost payloads are re-offered after 0.5 s, so loss
degrades latency, never correctness) — with the graceful-degradation
machinery armed (client retry/backoff, jittered view-change timers,
heal-triggered state-transfer catch-up, stalled-epoch grace), and checks
the partition-tolerance claims end to end:

* **liveness through retries**: every client's requests complete — the
  ones aimed at the unreachable leader recover via the retry loop and
  epoch-driven resubmission, not luck,
* **safety**: all nodes deliver identical request sequences over every
  shared position, with no request delivered twice,
* **reconvergence**: the minority node is detected as a laggard at heal
  time and reaches the cluster frontier via state transfer
  (``time_to_reconverge`` recorded, no epoch-timer wait),
* **payload-accurate accounting**: partition and link-fault drops are
  counted per payload (wire batching cannot hide them), and the minority
  side's backed-off timers keep the view-change count during the
  partition small,
* **determinism**: the delivered-sequence digest, the drop/retry counters
  and the simulator/network totals must match the golden trace in
  ``tests/data/golden_trace_partition.json`` bit for bit — a partitioned
  schedule is still a seeded schedule.

Exit code 1 on any violation; wired into ``make partition-smoke`` and the
CI driver (``benchmarks/run_perf_smoke.py``).  On success the figures are
also written to ``BENCH_partition_heal.json`` in the repository root so the
partition-resilience trajectory is tracked across PRs.  Pass
``--update-golden`` after an intentional schedule-affecting change.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Dict, Optional

from . import golden, smokelib
from .core.config import NetworkConfig, WorkloadConfig, PROTOCOL_PBFT
from .core.state_transfer import DEFAULT_PROBE_STAGGER
from .core.types import Batch
from .harness.runner import Deployment
from .harness.scenarios import (
    DEFAULT_FLUSH_INTERVAL,
    PAYLOAD_BYTES,
    SCALED_BANDWIDTH_BPS,
    iss_config,
    prefixes_identical,
)
from .harness.runner import DEFAULT_RECOVERY_POLL_INTERVAL
from .obs import ObsConfig
from .sim.chaos import LinkFaultSpec
from .workload.faults import minority_partition

#: The pinned partition scenario (keep in sync with the golden trace).
SCENARIO = dict(
    protocol=PROTOCOL_PBFT,
    num_nodes=4,
    random_seed=23,
    num_clients=8,
    total_rate=400.0,
    duration=15.0,
    partition_start=3.0,
    partition_heal=9.0,
    isolated_node=3,
    lossy_src=2,
    lossy_dst=1,
    loss_rate=0.2,
    lossy_retransmit=0.5,
    client_retry_timeout=2.0,
    view_change_jitter=0.1,
    stalled_catchup_grace=2.0,
    vc_recovery=True,
)


def golden_path() -> Path:
    """Location of the partition-determinism golden trace."""
    return smokelib.golden_data_path("golden_trace_partition.json")


def bench_output_path() -> Path:
    """Location of the ``BENCH_partition_heal.json`` artefact (repo root)."""
    return smokelib.bench_output_path("BENCH_partition_heal.json")


def build_deployment() -> Deployment:
    """Build the pinned scenario (all env-movable knobs set explicitly)."""
    config = iss_config(
        SCENARIO["protocol"],
        SCENARIO["num_nodes"],
        random_seed=SCENARIO["random_seed"],
        send_client_responses=True,
        client_retry_timeout=SCENARIO["client_retry_timeout"],
        client_retry_backoff=2.0,
        client_retry_max_timeout=8.0,
        client_retry_jitter=0.1,
        view_change_jitter=SCENARIO["view_change_jitter"],
        stalled_catchup_grace=SCENARIO["stalled_catchup_grace"],
        vc_recovery=SCENARIO["vc_recovery"],
    )
    network_config = NetworkConfig(
        bandwidth_bps=SCALED_BANDWIDTH_BPS,
        batch_flush_interval=DEFAULT_FLUSH_INTERVAL,
    )
    workload = WorkloadConfig(
        num_clients=SCENARIO["num_clients"],
        total_rate=SCENARIO["total_rate"],
        duration=SCENARIO["duration"],
        payload_size=PAYLOAD_BYTES,
    )
    return Deployment(
        config,
        network_config=network_config,
        workload=workload,
        partition_specs=minority_partition(
            1,
            SCENARIO["num_nodes"],
            SCENARIO["partition_start"],
            SCENARIO["partition_heal"],
        ),
        link_fault_specs=[
            LinkFaultSpec(
                src=SCENARIO["lossy_src"],
                dst=SCENARIO["lossy_dst"],
                loss_rate=SCENARIO["loss_rate"],
                retransmit=SCENARIO["lossy_retransmit"],
                seed=SCENARIO["random_seed"],
            )
        ],
        recovery_poll=DEFAULT_RECOVERY_POLL_INTERVAL,
        probe_stagger=DEFAULT_PROBE_STAGGER,
        drain_time=15.0,
        obs=ObsConfig.disabled(),
    )


def run_smoke() -> Dict[str, object]:
    """Run the scenario once and return the figures the golden trace pins."""
    deployment = build_deployment()
    result = deployment.run()
    report = result.report
    sample = result.nodes[0]
    trace = golden.delivered_trace(sample)
    delivered_rids = [
        request.rid
        for sn in range(sample.log.first_undelivered)
        for entry in [sample.log.entry(sn)]
        if isinstance(entry, Batch)
        for request in entry.requests
    ]
    partitions = report.partitions
    record = partitions["partitions"][0]
    drops = partitions["drops_by_cause"]
    return {
        "scenario": dict(SCENARIO),
        "completed": report.completed,
        "all_complete": all(
            c.requests_completed == c.requests_submitted for c in result.clients
        ),
        "prefixes_identical": prefixes_identical(result.nodes),
        "no_double_delivery": len(delivered_rids) == len(set(delivered_rids)),
        "laggards": list(record["laggards"]),
        "time_to_reconverge": record["time_to_reconverge"],
        "view_changes_during": record["view_changes_during"],
        "partition_drops": drops["partition"],
        "link_fault_drops": drops["link-fault"],
        "link_retransmissions": sum(
            f["payloads_retransmitted"] for f in partitions["link_faults"]
        ),
        "client_retries": partitions["client_retries_total"],
        "trace_len": len(trace),
        "trace_sha256": hashlib.sha256(repr(trace).encode()).hexdigest(),
        "events_executed": deployment.sim.events_executed,
        "messages_sent": deployment.network.stats.messages_sent,
    }


#: Figure keys that must match the golden trace exactly.
PINNED_KEYS = (
    "completed",
    "laggards",
    "time_to_reconverge",
    "view_changes_during",
    "partition_drops",
    "link_fault_drops",
    "link_retransmissions",
    "client_retries",
    "trace_len",
    "trace_sha256",
    "events_executed",
    "messages_sent",
)


def check_against_golden(figures: Dict[str, object], path: Path) -> Optional[str]:
    """Return an error string when the run diverges from the golden trace."""
    return golden.check_against_golden(
        figures, path, PINNED_KEYS, "PARTITION DETERMINISM REGRESSION"
    )


def semantic_violations(figures: Dict[str, object]) -> Optional[str]:
    """The partition-tolerance claims that must hold regardless of the
    golden trace."""
    if not figures["all_complete"]:
        return (
            "PARTITION LIVENESS VIOLATION: a client's requests did not all "
            "complete through the retry loop after the heal"
        )
    if not figures["prefixes_identical"]:
        return (
            "PARTITION SAFETY VIOLATION: nodes' delivered sequences "
            "diverged across the partition"
        )
    if not figures["no_double_delivery"]:
        return (
            "PARTITION IDEMPOTENCE VIOLATION: a retried request was "
            "delivered twice"
        )
    if SCENARIO["isolated_node"] not in figures["laggards"]:
        return (
            "PARTITION RECOVERY REGRESSION: the isolated node was not "
            "detected as a laggard at heal time"
        )
    if figures["time_to_reconverge"] < 0:
        return (
            "PARTITION RECOVERY REGRESSION: the minority side never "
            "reconverged after the heal"
        )
    if figures["partition_drops"] <= 0:
        return (
            "PARTITION ACCOUNTING REGRESSION: no payload drops were "
            "attributed to the partition (batching hiding drops?)"
        )
    if figures["link_fault_drops"] <= 0:
        return (
            "PARTITION ACCOUNTING REGRESSION: no payload drops were "
            "attributed to the lossy link (batching hiding drops?)"
        )
    if figures["link_retransmissions"] <= 0:
        return (
            "PARTITION TRANSPORT REGRESSION: the lossy link dropped "
            "payloads but the reliable transport never re-offered one"
        )
    if figures["client_retries"] <= 0:
        return (
            "PARTITION RETRY REGRESSION: clients rode out the partition "
            "without a single retry — the retry loop is not running"
        )
    return None


def main(argv: Optional[list] = None) -> int:
    """CLI entry point: run the smoke scenario and apply the checks."""
    scenario = SCENARIO
    return smokelib.run_gate(
        argv,
        name="partition",
        description=__doc__.splitlines()[0],
        banner=(
            f"partition smoke: {scenario['num_nodes']} {scenario['protocol']} nodes, "
            f"node {scenario['isolated_node']} cut off "
            f"t=[{scenario['partition_start']:.0f}, {scenario['partition_heal']:.0f}), "
            f"lossy link {scenario['lossy_src']}→{scenario['lossy_dst']} "
            f"({scenario['loss_rate']:.0%}), {scenario['duration']:.0f}s virtual ..."
        ),
        run_smoke=run_smoke,
        golden_path=golden_path(),
        pinned_keys=PINNED_KEYS,
        regression_label="PARTITION DETERMINISM REGRESSION",
        semantic_violations=semantic_violations,
        bench_path=bench_output_path(),
        bench_source="partition_smoke",
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
