"""Byzantine-adversary smoke test (``python -m repro.byzantine_smoke``).

Runs the pinned adversarial scenario — 4 PBFT nodes over the scaled WAN
with wire batching on, node 3 equivocating (conflicting SB proposals to
different peers) from the start — and checks the attack invariants end to
end:

* **safety**: all correct nodes deliver identical request sequences over
  every shared position (delivered-prefix equivalence),
* **containment**: the equivocated slots stall into ``⊥`` and the default
  Blacklist policy evicts the adversary from the final leaderset,
* **detection**: correct nodes prove the equivocation from ``f+1``
  conflicting prepare votes (positive detection counters),
* **determinism**: the correct nodes' delivered-sequence digest, the
  detection counters and the simulator/network totals must match the
  golden trace in ``tests/data/golden_trace_byzantine.json`` bit for bit —
  an adversarial schedule is still a seeded schedule.

Exit code 1 on any violation; wired into ``make byzantine-smoke`` and the
CI driver (``benchmarks/run_perf_smoke.py``).  Pass ``--update-golden``
after an intentional schedule-affecting change.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Dict, Optional

from . import golden, smokelib
from .core.config import NetworkConfig, WorkloadConfig, PROTOCOL_PBFT
from .core.state_transfer import DEFAULT_PROBE_STAGGER
from .harness.runner import Deployment
from .harness.scenarios import (
    DEFAULT_FLUSH_INTERVAL,
    PAYLOAD_BYTES,
    SCALED_BANDWIDTH_BPS,
    correct_nodes,
    iss_config,
    prefixes_identical,
)
from .obs import ObsConfig
from .sim.faults import BYZ_EQUIVOCATE, ByzantineSpec

#: The pinned adversarial scenario (keep in sync with the golden trace).
SCENARIO = dict(
    protocol=PROTOCOL_PBFT,
    num_nodes=4,
    random_seed=13,
    num_clients=8,
    total_rate=600.0,
    duration=20.0,
    adversary=3,
    behaviour=BYZ_EQUIVOCATE,
)


def golden_path() -> Path:
    """Location of the Byzantine-determinism golden trace."""
    return smokelib.golden_data_path("golden_trace_byzantine.json")


def build_deployment() -> Deployment:
    """Build the pinned scenario (all env-movable knobs set explicitly)."""
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
    return Deployment(
        config,
        network_config=network_config,
        workload=workload,
        byzantine_specs=[
            ByzantineSpec(node=SCENARIO["adversary"], behaviour=SCENARIO["behaviour"])
        ],
        probe_stagger=DEFAULT_PROBE_STAGGER,
        obs=ObsConfig.disabled(),
    )


def run_smoke() -> Dict[str, object]:
    """Run the scenario once and return the figures the golden trace pins."""
    deployment = build_deployment()
    result = deployment.run()
    report = result.report
    specs = deployment.byzantine_specs
    correct = correct_nodes(result, specs)
    sample = correct[0]
    trace = golden.delivered_trace(sample)
    final_leaders = sample.manager.leaders_for(sample.current_epoch)
    adversary = deployment.injector.adversary_for(SCENARIO["adversary"])
    return {
        "scenario": dict(SCENARIO),
        "completed": report.completed,
        "prefixes_identical": prefixes_identical(correct),
        "adversary_evicted": SCENARIO["adversary"] not in final_leaders,
        "equivocations_sent": adversary.equivocations_sent,
        "equivocations_detected_total": int(
            report.extra.get("equivocations_detected_total", 0.0)
        ),
        "nil_committed": sample.nil_committed,
        "trace_len": len(trace),
        "trace_sha256": hashlib.sha256(repr(trace).encode()).hexdigest(),
        "events_executed": deployment.sim.events_executed,
        "messages_sent": deployment.network.stats.messages_sent,
    }


#: Figure keys that must match the golden trace exactly.
PINNED_KEYS = (
    "completed",
    "equivocations_sent",
    "equivocations_detected_total",
    "nil_committed",
    "trace_len",
    "trace_sha256",
    "events_executed",
    "messages_sent",
)


def check_against_golden(figures: Dict[str, object], path: Path) -> Optional[str]:
    """Return an error string when the run diverges from the golden trace."""
    return golden.check_against_golden(
        figures, path, PINNED_KEYS, "BYZANTINE DETERMINISM REGRESSION"
    )


def semantic_violations(figures: Dict[str, object]) -> Optional[str]:
    """The attack claims that must hold regardless of the golden trace."""
    if not figures["prefixes_identical"]:
        return (
            "BYZANTINE SAFETY VIOLATION: correct nodes' delivered sequences "
            "diverged under equivocation"
        )
    if figures["completed"] <= 0:
        return "BYZANTINE LIVENESS VIOLATION: nothing was delivered"
    if not figures["adversary_evicted"]:
        return (
            "BYZANTINE CONTAINMENT REGRESSION: the Blacklist policy failed "
            "to evict the equivocating leader"
        )
    if figures["equivocations_detected_total"] <= 0:
        return (
            "BYZANTINE DETECTION REGRESSION: no correct node detected the "
            "equivocation"
        )
    return None


def main(argv: Optional[list] = None) -> int:
    """CLI entry point: run the smoke scenario and apply the checks."""
    scenario = SCENARIO
    return smokelib.run_gate(
        argv,
        name="byzantine",
        description=__doc__.splitlines()[0],
        banner=(
            f"byzantine smoke: {scenario['num_nodes']} {scenario['protocol']} nodes, "
            f"node {scenario['adversary']} {scenario['behaviour']}, "
            f"{scenario['duration']:.0f}s virtual ..."
        ),
        run_smoke=run_smoke,
        golden_path=golden_path(),
        pinned_keys=PINNED_KEYS,
        regression_label="BYZANTINE DETERMINISM REGRESSION",
        semantic_violations=semantic_violations,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
