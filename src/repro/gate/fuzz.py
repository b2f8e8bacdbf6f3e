"""Seeded scenario fuzzer (gate ``fuzz``; ``python -m repro.gate.fuzz``).

Generates a fixed, reproducible population of small random scenarios —
random protocol, node count, latency geometry (synthetic ring or WAN
regions), wire batching, and a random mix of crash / straggler / lossy-link
/ forged-signature-client / membership-change (mid-run join and removal)
faults — then runs every scenario once and checks that the standing safety
invariants hold (prefix identity, no double delivery, completed ≤ submitted,
rejections ≥ forgeries; see :mod:`repro.harness.invariants`).

Everything derives from one master seed, so a reported violation is
replayable: ``python -m repro.gate.fuzz --seed S --count N`` regenerates the
exact same scenarios (exit code 1, one line per violation).  The default
population is :data:`DEFAULT_SCENARIOS` scenarios, which ``tests/
test_scenario_fuzz.py`` sweeps; the ``fuzz`` gate of ``python -m repro.gate``
runs the first :data:`GATE_SCENARIOS` of them.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Dict, List, Optional

from ..core.config import NetworkConfig
from ..harness import scenarios
from ..harness.invariants import check_invariants
from ..harness.runner import Deployment
from ..obs.config import ObsConfig
from ..runtime.faults import (
    CLIENT_FORGED_SIGNATURE,
    MEMBER_ADD,
    MEMBER_REMOVE,
    CrashSpec,
    LinkFaultSpec,
    MaliciousClientSpec,
    MembershipSpec,
    StragglerSpec,
)

#: Scenarios generated by a full fuzz run (``--count`` overrides).
DEFAULT_SCENARIOS = 40

#: Scenarios the ``fuzz`` gate runs: the CI share of the population.
GATE_SCENARIOS = 12

#: Master seed of the default population (``--seed`` overrides).  Fixed so
#: every CI run fuzzes the same scenarios; bump it deliberately to rotate
#: the population.
DEFAULT_MASTER_SEED = 0xF5A11

#: Protocols the fuzzer draws from.
FUZZ_PROTOCOLS = ("pbft", "hotstuff", "raft")


def random_scenario(rng: random.Random, index: int) -> Dict[str, object]:
    """Draw one small random scenario description from ``rng``.

    The description is a plain dict (protocol, node count, network shape,
    fault list, seeds) — JSON-friendly, so a violating scenario can be
    printed and replayed verbatim.  Fault draws are independent: a scenario
    can combine a crash, a straggler, a lossy link and a forging client, or
    carry no fault at all.  Crashed nodes stay down (no restart), so at
    most one crash is drawn — a second would exceed ``f`` for the smallest
    clusters.
    """
    protocol = rng.choice(FUZZ_PROTOCOLS)
    num_nodes = rng.randint(4, 7)
    duration = round(rng.uniform(2.0, 3.5), 1)
    faults: List[str] = []
    if rng.random() < 0.40:
        faults.append("crash")
    if rng.random() < 0.35:
        faults.append("straggler")
    if rng.random() < 0.40:
        faults.append("link-loss")
    # Forged signatures need client signing, which the CFT configuration
    # turns off — identity forgery is outside Raft's fault model.
    if protocol != "raft" and rng.random() < 0.30:
        faults.append("forged-client")
    # Dynamic membership: a mid-run joiner, and — when the cluster is big
    # enough to keep a quorum alongside a possible crash — a mid-run
    # removal.  Reconfigurations activate at epoch boundaries, so
    # membership scenarios shorten the epoch and stretch the run to give
    # the ConfigTx time to commit *and* activate.
    if rng.random() < 0.30:
        faults.append("member-add")
    if num_nodes >= 5 and rng.random() < 0.25:
        faults.append("member-remove")
    reconfiguring = "member-add" in faults or "member-remove" in faults
    if reconfiguring:
        duration = round(duration + 2.5, 1)
    wan = rng.random() < 0.5
    return {
        "index": index,
        "protocol": protocol,
        "num_nodes": num_nodes,
        "duration": duration,
        "rate": rng.choice((150.0, 250.0, 400.0)),
        "seed": rng.randrange(1 << 20),
        "batching": rng.random() < 0.5,
        "wan_regions": rng.randint(2, 6) if wan else 0,
        "num_datacenters": 0 if wan else rng.choice((2, 4, 8)),
        "epoch_length": 8 if reconfiguring else 0,
        "faults": faults,
    }


def build_deployment(spec: Dict[str, object]) -> Deployment:
    """Materialise one fuzz scenario description into a Deployment.

    Observability is pinned off here (not by the gate runner): the
    reproduction CLI and the pytest sweep must replay the exact same
    configuration whatever ``REPRO_TRACE*`` says.
    """
    flush = scenarios.DEFAULT_FLUSH_INTERVAL if spec["batching"] else 0.0
    if spec["wan_regions"]:
        network = scenarios.wan_regions(
            spec["wan_regions"], batch_flush_interval=flush
        )
    else:
        network = NetworkConfig(
            bandwidth_bps=scenarios.SCALED_BANDWIDTH_BPS,
            num_datacenters=spec["num_datacenters"],
            batch_flush_interval=flush,
        )
    overrides = (
        {"epoch_length": spec["epoch_length"]} if spec.get("epoch_length") else {}
    )
    num_nodes = spec["num_nodes"]
    duration = spec["duration"]
    drawn = spec["faults"]
    faults: List[object] = []
    if "crash" in drawn:
        faults.append(CrashSpec(node=num_nodes - 1, time=duration * 0.4))
    if "member-add" in drawn:
        faults.append(
            MembershipSpec(node=num_nodes, action=MEMBER_ADD, time=duration * 0.3)
        )
    if "member-remove" in drawn:
        # Never the crash victim: removing an already-dead node is a
        # different (valid) scenario, but the fuzzer wants the clean-removal
        # path — a live node retiring itself at the activation boundary.
        victim = num_nodes - 2 if "crash" in drawn else num_nodes - 1
        faults.append(
            MembershipSpec(node=victim, action=MEMBER_REMOVE, time=duration * 0.35)
        )
    if "straggler" in drawn:
        faults.append(StragglerSpec(node=1, delay=1.0))
    if "link-loss" in drawn:
        faults.append(
            LinkFaultSpec(
                src=0,
                dst=2,
                start_time=0.5,
                end_time=duration,
                loss_rate=0.2,
                retransmit=0.3,
                seed=spec["seed"],
            )
        )
    if "forged-client" in drawn:
        faults.append(
            MaliciousClientSpec(client=0, behaviour=CLIENT_FORGED_SIGNATURE, victim=1)
        )
    return scenarios.deployment(
        spec["protocol"],
        num_nodes,
        faults,
        rate=spec["rate"],
        duration=duration,
        num_clients=6,
        seed=spec["seed"],
        network=network,
        obs=ObsConfig.disabled(),
        probe_stagger=0.5,
        **scenarios.GRACEFUL,
        **overrides,
    )


def check_scenario(spec: Dict[str, object]) -> List[str]:
    """Run one scenario; return every invariant violation found.

    Violations are prefixed with the scenario index so a mixed batch of
    failures still reads unambiguously.
    """
    label = f"scenario {spec['index']} ({spec['protocol']} n={spec['num_nodes']})"
    result = build_deployment(spec).run()
    return [f"{label}: {v}" for v in check_invariants(result)]


def generate_scenarios(
    count: int = DEFAULT_SCENARIOS, master_seed: int = DEFAULT_MASTER_SEED
) -> List[Dict[str, object]]:
    """The deterministic scenario population for one (count, seed) pair."""
    rng = random.Random(master_seed)
    return [random_scenario(rng, index) for index in range(count)]


def run_fuzz(
    count: int = GATE_SCENARIOS, master_seed: int = DEFAULT_MASTER_SEED
) -> Dict[str, object]:
    """Fuzz the first ``count`` scenarios of the ``master_seed`` population;
    the figures list every invariant violation found."""
    violations: List[str] = []
    for spec in generate_scenarios(count, master_seed):
        violations.extend(check_scenario(spec))
    return {"master_seed": master_seed, "count": count, "violations": violations}


#: The gate's one claim (ordered ``(predicate, message)`` pairs).
CLAIMS = (
    (lambda f: not f["violations"], "FUZZ VIOLATION(S): {violations}"),
)


def main(argv: Optional[List[str]] = None) -> int:
    """Reproduction CLI; exit 1 when any scenario violates an invariant."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--count", type=int, default=DEFAULT_SCENARIOS,
        help=f"scenarios to fuzz (default {DEFAULT_SCENARIOS})",
    )
    parser.add_argument(
        "--seed", type=lambda text: int(text, 0), default=DEFAULT_MASTER_SEED,
        help="master seed of the scenario population",
    )
    args = parser.parse_args(argv)
    violations = run_fuzz(args.count, args.seed)["violations"]
    for violation in violations:
        print(f"FUZZ VIOLATION: {violation}")
    print(
        f"fuzz: {args.count} scenarios (seed {args.seed:#x}), "
        f"{len(violations)} violation(s)"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
