"""Malicious-client smoke test (``python -m repro.client_abuse_smoke``).

Runs the pinned client-abuse scenario — 4 PBFT nodes over the scaled WAN
with wire batching on, 8 clients of which three attack from the start
(client 7 abuses watermarks, client 6 floods duplicates, client 5 forges
client 0's identity) — and checks the Section 3.7 defences end to end:

* **correct clients are unharmed**: every request of every correct client
  completes,
* **safety**: all nodes deliver identical request sequences over every
  shared position, with no request delivered twice,
* **containment**: every abusive submission class is rejected and counted
  in ``RunReport.client_abuse`` — far-out timestamps at the watermark
  window, forgeries at the signature check (attributed to the claimed
  victim), flood copies at the idempotent bucket queues — and per-client
  node state stays bounded (watermark out-of-order buffers capped by the
  window, delivered filters garbage collected below advanced watermarks),
* **determinism**: the delivered-sequence digest, the rejection counters
  and the simulator/network totals must match the golden trace in
  ``tests/data/golden_trace_client_abuse.json`` bit for bit — an abusive
  schedule is still a seeded schedule.

Exit code 1 on any violation; wired into ``make client-abuse-smoke`` and
the CI driver (``benchmarks/run_perf_smoke.py``).  On success the figures
are also written to ``BENCH_client_abuse.json`` in the repository root so
the abuse-resilience trajectory is tracked across PRs.  Pass
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
    CLIENT_ABUSE_WINDOW,
    DEFAULT_FLUSH_INTERVAL,
    PAYLOAD_BYTES,
    SCALED_BANDWIDTH_BPS,
    iss_config,
    prefixes_identical,
)
from .obs import ObsConfig
from .sim.faults import (
    CLIENT_DUPLICATE_FLOOD,
    CLIENT_FORGED_SIGNATURE,
    CLIENT_WATERMARK_ABUSE,
    MaliciousClientSpec,
)

#: The pinned abusive scenario (keep in sync with the golden trace).
SCENARIO = dict(
    protocol=PROTOCOL_PBFT,
    num_nodes=4,
    random_seed=17,
    num_clients=8,
    total_rate=400.0,
    duration=12.0,
    window=CLIENT_ABUSE_WINDOW,
    watermark_abuser=7,
    duplicate_flooder=6,
    forger=5,
    forgery_victim=0,
)


def golden_path() -> Path:
    """Location of the client-abuse-determinism golden trace."""
    return smokelib.golden_data_path("golden_trace_client_abuse.json")


def bench_output_path() -> Path:
    """Location of the ``BENCH_client_abuse.json`` artefact (repo root)."""
    return smokelib.bench_output_path("BENCH_client_abuse.json")


def build_deployment() -> Deployment:
    """Build the pinned scenario (all env-movable knobs set explicitly)."""
    config = iss_config(
        SCENARIO["protocol"],
        SCENARIO["num_nodes"],
        random_seed=SCENARIO["random_seed"],
        client_watermark_window=SCENARIO["window"],
        send_client_responses=True,
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
        malicious_client_specs=[
            MaliciousClientSpec(
                client=SCENARIO["watermark_abuser"], behaviour=CLIENT_WATERMARK_ABUSE
            ),
            MaliciousClientSpec(
                client=SCENARIO["duplicate_flooder"], behaviour=CLIENT_DUPLICATE_FLOOD
            ),
            MaliciousClientSpec(
                client=SCENARIO["forger"],
                behaviour=CLIENT_FORGED_SIGNATURE,
                victim=SCENARIO["forgery_victim"],
            ),
        ],
        probe_stagger=DEFAULT_PROBE_STAGGER,
        obs=ObsConfig.disabled(),
    )


def run_smoke() -> Dict[str, object]:
    """Run the scenario once and return the figures the golden trace pins."""
    deployment = build_deployment()
    result = deployment.run()
    report = result.report
    abusive_ids = {spec.client for spec in deployment.malicious_client_specs}
    correct_clients = [c for c in result.clients if c.client_id not in abusive_ids]
    sample = result.nodes[0]
    trace = golden.delivered_trace(sample)
    delivered_rids = [
        request.rid
        for sn in range(sample.log.first_undelivered)
        for entry in [sample.log.entry(sn)]
        if isinstance(entry, Batch)
        for request in entry.requests
    ]
    abuse = report.client_abuse
    per_client = abuse["per_client"]
    abusers = abuse["abusers"]

    def rejected(client: int, reason: str) -> int:
        return per_client.get(client, {}).get(reason, 0)

    return {
        "scenario": dict(SCENARIO),
        "completed": report.completed,
        "correct_all_complete": all(
            c.requests_completed == c.requests_submitted for c in correct_clients
        ),
        "prefixes_identical": prefixes_identical(result.nodes),
        "no_double_delivery": len(delivered_rids) == len(set(delivered_rids)),
        "out_of_window_sent": abusers[SCENARIO["watermark_abuser"]][
            "out_of_window_sent"
        ],
        "watermark_rejections": rejected(
            SCENARIO["watermark_abuser"], "outside_watermarks"
        ),
        "duplicates_sent": abusers[SCENARIO["duplicate_flooder"]]["duplicates_sent"],
        "duplicates_absorbed": rejected(SCENARIO["duplicate_flooder"], "duplicates"),
        "forged_sent": abusers[SCENARIO["forger"]]["forged_sent"],
        "forgeries_rejected": rejected(SCENARIO["forgery_victim"], "bad_signature"),
        "gc_entries_total": int(
            report.extra.get("client_state_gc_entries_total", 0.0)
        ),
        "out_of_order_max": max(
            node.watermarks.out_of_order_entries() for node in result.nodes
        ),
        "trace_len": len(trace),
        "trace_sha256": hashlib.sha256(repr(trace).encode()).hexdigest(),
        "events_executed": deployment.sim.events_executed,
        "messages_sent": deployment.network.stats.messages_sent,
    }


#: Figure keys that must match the golden trace exactly.
PINNED_KEYS = (
    "completed",
    "out_of_window_sent",
    "watermark_rejections",
    "duplicates_sent",
    "duplicates_absorbed",
    "forged_sent",
    "forgeries_rejected",
    "gc_entries_total",
    "trace_len",
    "trace_sha256",
    "events_executed",
    "messages_sent",
)


def check_against_golden(figures: Dict[str, object], path: Path) -> Optional[str]:
    """Return an error string when the run diverges from the golden trace."""
    return golden.check_against_golden(
        figures, path, PINNED_KEYS, "CLIENT-ABUSE DETERMINISM REGRESSION"
    )


def semantic_violations(figures: Dict[str, object]) -> Optional[str]:
    """The defence claims that must hold regardless of the golden trace."""
    if not figures["correct_all_complete"]:
        return (
            "CLIENT-ABUSE LIVENESS VIOLATION: a correct client's requests "
            "did not all complete under abuse"
        )
    if not figures["prefixes_identical"]:
        return (
            "CLIENT-ABUSE SAFETY VIOLATION: nodes' delivered sequences "
            "diverged under abusive clients"
        )
    if not figures["no_double_delivery"]:
        return (
            "CLIENT-ABUSE IDEMPOTENCE VIOLATION: a duplicate-flooded "
            "request was delivered twice"
        )
    if not figures["out_of_window_sent"] or (
        figures["watermark_rejections"] < figures["out_of_window_sent"]
    ):
        return (
            "CLIENT-ABUSE CONTAINMENT REGRESSION: far-out timestamps were "
            "not all rejected at the watermark window"
        )
    if not figures["forged_sent"] or (
        figures["forgeries_rejected"] < figures["forged_sent"]
    ):
        return (
            "CLIENT-ABUSE CONTAINMENT REGRESSION: forged-identity requests "
            "were not all rejected at the signature check"
        )
    if not figures["duplicates_sent"] or figures["duplicates_absorbed"] <= 0:
        return (
            "CLIENT-ABUSE CONTAINMENT REGRESSION: the duplicate flood was "
            "not absorbed and counted"
        )
    if figures["gc_entries_total"] <= 0:
        return (
            "CLIENT-ABUSE MEMORY REGRESSION: no per-client state was "
            "garbage collected below the advanced watermarks"
        )
    if figures["out_of_order_max"] > SCENARIO["window"] * SCENARIO["num_clients"]:
        return (
            "CLIENT-ABUSE MEMORY REGRESSION: a node's out-of-order "
            "watermark buffer exceeded the window bound"
        )
    return None


def main(argv: Optional[list] = None) -> int:
    """CLI entry point: run the smoke scenario and apply the checks."""
    scenario = SCENARIO
    return smokelib.run_gate(
        argv,
        name="client-abuse",
        description=__doc__.splitlines()[0],
        banner=(
            f"client-abuse smoke: {scenario['num_nodes']} {scenario['protocol']} nodes, "
            f"{scenario['num_clients']} clients "
            f"(abusers: {scenario['watermark_abuser']} watermark, "
            f"{scenario['duplicate_flooder']} flood, {scenario['forger']} forging "
            f"client {scenario['forgery_victim']}), "
            f"{scenario['duration']:.0f}s virtual ..."
        ),
        run_smoke=run_smoke,
        golden_path=golden_path(),
        pinned_keys=PINNED_KEYS,
        regression_label="CLIENT-ABUSE DETERMINISM REGRESSION",
        semantic_violations=semantic_violations,
        bench_path=bench_output_path(),
        bench_source="client_abuse_smoke",
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
