"""Crash-recovery smoke test (``python -m repro.recovery_smoke``).

Runs the pinned crash→restart scenario — 4 PBFT nodes over the scaled WAN
with wire batching on, node 1 crashed mid-epoch at t=10 s and restarted at
t=18 s — and checks the recovery invariants end to end:

* the restarted node **catches up** (its recovery record carries a
  non-negative ``time_to_caught_up``),
* its delivered sequence is **identical** to a never-crashed peer's over
  every shared position, and
* the whole run is **deterministic**: the recovery record, the victim's
  delivered-sequence digest, and the simulator/network counters must match
  the golden trace recorded in ``tests/data/golden_trace_recovery.json``
  bit for bit (same seed ⇒ same crash ⇒ same WAL ⇒ same recovery).

Exit code 1 on any violation, which is how ``make recovery-smoke`` and the
CI driver (``benchmarks/run_perf_smoke.py``) catch recovery regressions.
Pass ``--update-golden`` after an intentional schedule-affecting change.

The scenario deliberately crashes *after* the victim's first stable
checkpoint so every recovery phase is exercised: snapshot apply, WAL-tail
replay, certificate restoration, and state transfer for the epochs ordered
while the node was down.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Optional

from . import golden, smokelib
from .core.config import ISSConfig, NetworkConfig, WorkloadConfig, PROTOCOL_PBFT
from .core.state_transfer import DEFAULT_PROBE_STAGGER
from .harness.runner import DEFAULT_RECOVERY_POLL_INTERVAL, Deployment
from .harness.scenarios import (
    DEFAULT_FLUSH_INTERVAL,
    PAYLOAD_BYTES,
    SCALED_BANDWIDTH_BPS,
    delivered_prefix_matches,
    iss_config,
)
from .obs import ObsConfig
from .sim.faults import CrashSpec, RestartSpec

#: The pinned crash-restart scenario (keep in sync with the golden trace).
SCENARIO = dict(
    protocol=PROTOCOL_PBFT,
    num_nodes=4,
    random_seed=11,
    num_clients=8,
    total_rate=800.0,
    duration=30.0,
    crash_time=10.0,
    restart_time=18.0,
    victim=1,
)


def golden_path() -> Path:
    """Location of the restart-determinism golden trace."""
    return smokelib.golden_data_path("golden_trace_recovery.json")


def build_deployment() -> Deployment:
    """Build the pinned scenario.

    Every knob that an env var could move (flush interval, recovery poll
    tick, state-transfer probe stagger) is set explicitly: the golden
    trace must be machine- and environment-stable.
    """
    config = iss_config(
        SCENARIO["protocol"], SCENARIO["num_nodes"], random_seed=SCENARIO["random_seed"]
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
    victim = SCENARIO["victim"]
    return Deployment(
        config,
        network_config=network_config,
        workload=workload,
        crash_specs=[
            CrashSpec(node=victim, trigger="at-time", time=SCENARIO["crash_time"])
        ],
        restart_specs=[RestartSpec(node=victim, time=SCENARIO["restart_time"])],
        recovery_poll=DEFAULT_RECOVERY_POLL_INTERVAL,
        probe_stagger=DEFAULT_PROBE_STAGGER,
        obs=ObsConfig.disabled(),
    )


#: Canonical delivered-sequence shape shared by every smoke gate.
delivered_trace = golden.delivered_trace


def run_smoke() -> Dict[str, object]:
    """Run the scenario once and return the figures the golden trace pins."""
    import hashlib

    deployment = build_deployment()
    result = deployment.run()
    report = result.report
    victim = result.nodes[SCENARIO["victim"]]
    reference = next(
        node
        for node in result.nodes
        if node.node_id != SCENARIO["victim"] and not node.crashed
    )
    trace = delivered_trace(victim)
    recovery = dict(report.recoveries[0]) if report.recoveries else {}
    return {
        "scenario": dict(SCENARIO),
        "recovery": recovery,
        "caught_up": recovery.get("time_to_caught_up", -1.0) >= 0.0,
        "prefix_matches": delivered_prefix_matches(reference, victim),
        "trace_len": len(trace),
        "trace_sha256": hashlib.sha256(repr(trace).encode()).hexdigest(),
        "events_executed": deployment.sim.events_executed,
        "messages_sent": deployment.network.stats.messages_sent,
        "wal_appended_total": report.extra.get("wal_appended_total", 0.0),
        "snapshots_installed_total": report.extra.get("snapshots_installed_total", 0.0),
    }


#: Figure keys that must match the golden trace exactly.
PINNED_KEYS = (
    "recovery",
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
        figures, path, PINNED_KEYS, "RECOVERY DETERMINISM REGRESSION"
    )


def semantic_violations(figures: Dict[str, object]) -> Optional[str]:
    """The recovery claims that must hold regardless of the golden trace."""
    if not figures["caught_up"]:
        return (
            "RECOVERY REGRESSION: the restarted node never caught up "
            "(time_to_caught_up = -1)"
        )
    if not figures["prefix_matches"]:
        return (
            "RECOVERY SAFETY VIOLATION: the restarted node's delivered "
            "sequence diverged from a never-crashed peer's"
        )
    return None


def main(argv: Optional[list] = None) -> int:
    """CLI entry point: run the smoke scenario and apply the checks."""
    scenario = SCENARIO
    return smokelib.run_gate(
        argv,
        name="recovery",
        description=__doc__.splitlines()[0],
        banner=(
            f"recovery smoke: {scenario['num_nodes']} {scenario['protocol']} nodes, "
            f"crash t={scenario['crash_time']:.0f}s, "
            f"restart t={scenario['restart_time']:.0f}s, "
            f"{scenario['duration']:.0f}s virtual ..."
        ),
        run_smoke=run_smoke,
        golden_path=golden_path(),
        pinned_keys=PINNED_KEYS,
        regression_label="RECOVERY DETERMINISM REGRESSION",
        semantic_violations=semantic_violations,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
