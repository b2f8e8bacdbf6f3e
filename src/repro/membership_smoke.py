"""Dynamic-membership smoke test (``python -m repro.membership_smoke``).

Runs the pinned reconfiguration scenario — 4 PBFT nodes over the scaled
WAN with wire batching on, replica 4 *added* at t=3 s and replica 0
*removed* at t=10 s, both as ConfigTxs ordered in the log — and checks
the membership invariants end to end:

* both ConfigTxs **activate at epoch boundaries** (the add grows the view
  to 5, the removal shrinks it to ``[1, 2, 3, 4]``),
* the joiner **bootstraps** via state transfer and reaches the cluster
  frontier (``time_to_join`` ≥ 0), the removed replica retires exactly at
  its activation boundary,
* every client request **completes** (100 %, through the retry loop) and
  the standing + membership invariants hold
  (:func:`repro.harness.invariants.check_invariants`), and
* the whole run is **deterministic**: the delivered-sequence digest of a
  never-reconfigured replica, the activation schedule, and the
  simulator/network counters must match the golden trace recorded in
  ``tests/data/golden_trace_membership.json`` bit for bit.

Exit code 1 on any violation, which is how ``make membership-smoke`` and
the CI driver (``benchmarks/run_perf_smoke.py``) catch reconfiguration
regressions.  Pass ``--update-golden`` after an intentional
schedule-affecting change.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Optional

from . import golden, smokelib
from .core.config import NetworkConfig, WorkloadConfig, PROTOCOL_PBFT
from .core.state_transfer import DEFAULT_PROBE_STAGGER
from .harness.invariants import check_invariants
from .harness.runner import DEFAULT_RECOVERY_POLL_INTERVAL, Deployment
from .harness.scenarios import (
    DEFAULT_FLUSH_INTERVAL,
    PAYLOAD_BYTES,
    SCALED_BANDWIDTH_BPS,
    membership_config,
)
from .obs import ObsConfig
from .sim.faults import MEMBER_ADD, MEMBER_REMOVE, MembershipSpec

#: The pinned reconfiguration scenario (keep in sync with the golden trace).
SCENARIO = dict(
    protocol=PROTOCOL_PBFT,
    num_nodes=4,
    epoch_length=16,
    random_seed=11,
    num_clients=8,
    total_rate=600.0,
    duration=18.0,
    join_node=4,
    join_time=3.0,
    leave_node=0,
    leave_time=10.0,
    reference=1,
)


def golden_path() -> Path:
    """Location of the membership-determinism golden trace."""
    return smokelib.golden_data_path("golden_trace_membership.json")


def build_deployment() -> Deployment:
    """Build the pinned scenario.

    Every knob an env var could move (flush interval, membership epoch
    length, recovery poll tick, probe stagger) is set explicitly: the
    golden trace must be machine- and environment-stable.
    """
    config = membership_config(
        SCENARIO["protocol"],
        SCENARIO["num_nodes"],
        random_seed=SCENARIO["random_seed"],
        epoch_length=SCENARIO["epoch_length"],
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
        membership_specs=[
            MembershipSpec(
                node=SCENARIO["join_node"], action=MEMBER_ADD,
                time=SCENARIO["join_time"],
            ),
            MembershipSpec(
                node=SCENARIO["leave_node"], action=MEMBER_REMOVE,
                time=SCENARIO["leave_time"],
            ),
        ],
        recovery_poll=DEFAULT_RECOVERY_POLL_INTERVAL,
        probe_stagger=DEFAULT_PROBE_STAGGER,
        obs=ObsConfig.disabled(),
        drain_time=8.0,
    )


#: Canonical delivered-sequence shape shared by every smoke gate.
delivered_trace = golden.delivered_trace


def run_smoke() -> Dict[str, object]:
    """Run the scenario once and return the figures the golden trace pins."""
    import hashlib

    deployment = build_deployment()
    result = deployment.run()
    report = result.report
    membership = report.membership
    reference = result.nodes[SCENARIO["reference"]]
    trace = delivered_trace(reference)
    joins = membership.get("joins", [])
    return {
        "scenario": dict(SCENARIO),
        "activations": [
            [a["epoch"], list(a["added"]), list(a["removed"])]
            for a in membership.get("activations", [])
        ],
        "final_view": list(membership.get("final_view", [])),
        "joins": len(joins),
        "all_joined": all(j["time_to_join"] >= 0.0 for j in joins),
        "time_to_join": max((j["time_to_join"] for j in joins), default=-1.0),
        "config_txs_committed": len(membership.get("config_txs_committed", [])),
        "submitted": sum(c.requests_submitted for c in result.clients),
        "completed": sum(c.requests_completed for c in result.clients),
        "all_complete": all(
            c.requests_completed == c.requests_submitted for c in result.clients
        ),
        "violations": check_invariants(result),
        "trace_len": len(trace),
        "trace_sha256": hashlib.sha256(repr(trace).encode()).hexdigest(),
        "events_executed": deployment.sim.events_executed,
        "messages_sent": deployment.network.stats.messages_sent,
    }


#: Figure keys that must match the golden trace exactly.
PINNED_KEYS = (
    "activations",
    "final_view",
    "config_txs_committed",
    "time_to_join",
    "trace_len",
    "trace_sha256",
    "events_executed",
    "messages_sent",
)


def check_against_golden(
    figures: Dict[str, object], path: Path
) -> Optional[str]:
    """Return an error string when the run diverges from the golden trace."""
    return golden.check_against_golden(
        figures, path, PINNED_KEYS, "MEMBERSHIP DETERMINISM REGRESSION"
    )


def semantic_violations(figures: Dict[str, object]) -> Optional[str]:
    """The membership claims that must hold regardless of the golden trace."""
    if not figures["all_joined"] or figures["joins"] < 1:
        return (
            "MEMBERSHIP REGRESSION: the added replica never reached the "
            "cluster frontier (time_to_join = -1)"
        )
    expected_view = [
        n
        for n in range(SCENARIO["num_nodes"] + 1)
        if n != SCENARIO["leave_node"]
    ]
    if figures["final_view"] != expected_view:
        return (
            f"MEMBERSHIP REGRESSION: final view {figures['final_view']} != "
            f"{expected_view} (add and removal must both activate)"
        )
    if not figures["all_complete"]:
        return (
            f"MEMBERSHIP REGRESSION: only {figures['completed']} of "
            f"{figures['submitted']} requests completed through the "
            f"reconfigurations"
        )
    if figures["violations"]:
        return "MEMBERSHIP SAFETY VIOLATION: " + "; ".join(figures["violations"])
    return None


def main(argv: Optional[list] = None) -> int:
    """CLI entry point: run the smoke scenario and apply the checks."""
    scenario = SCENARIO
    return smokelib.run_gate(
        argv,
        name="membership",
        description=__doc__.splitlines()[0],
        banner=(
            f"membership smoke: {scenario['num_nodes']} {scenario['protocol']} "
            f"nodes, join t={scenario['join_time']:.0f}s, "
            f"leave t={scenario['leave_time']:.0f}s, "
            f"{scenario['duration']:.0f}s virtual ..."
        ),
        run_smoke=run_smoke,
        golden_path=golden_path(),
        pinned_keys=PINNED_KEYS,
        regression_label="MEMBERSHIP DETERMINISM REGRESSION",
        semantic_violations=semantic_violations,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
