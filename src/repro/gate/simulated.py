"""The six pinned simulator scenarios behind the golden gates.

Each gate is a ``SCENARIO`` literal (recorded verbatim in the golden
trace, so a trace of a different experiment is refused), a ``*_figures``
function that runs it once and returns a flat figure dict, and a
``*_CLAIMS`` tuple of ordered ``(predicate, message)`` pairs — the claims
that must hold in every mode, so a golden trace of a broken run can never
be recorded.  The deployments come from the same builder and reader
(:func:`repro.harness.scenarios.deployment` / ``row``) the figure
benchmarks use; nothing about a scenario's shape is read from the
environment, and :mod:`repro.gate.table` hands every figure function the
one pinned ``ObsConfig``.

All five golden scenarios share a shape: 4 PBFT nodes over the scaled WAN
with wire batching on, 8 open-loop clients.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from ..core.config import ISSConfig, NetworkConfig, WorkloadConfig, PROTOCOL_PBFT
from ..harness import scenarios
from ..harness.invariants import (
    check_invariants,
    check_no_double_delivery,
    trace_sha256,
)
from ..harness.runner import Deployment
from ..obs.config import ObsConfig
from ..runtime.faults import (
    BYZ_EQUIVOCATE,
    CLIENT_DUPLICATE_FLOOD,
    CLIENT_FORGED_SIGNATURE,
    CLIENT_WATERMARK_ABUSE,
    MEMBER_ADD,
    MEMBER_REMOVE,
    CrashSpec,
    LinkFaultSpec,
    MaliciousClientSpec,
    MembershipSpec,
    RestartSpec,
)
from ..workload.faults import byzantine_leaders, minority_partition

Figures = Dict[str, object]
#: ``(holds(figures), message)``; the message is ``str.format_map``-ed with
#: the figures when the predicate is false.
Claim = Tuple[Callable[[Figures], bool], str]


#: The determinism pins every simulator golden shares on top of its own
#: counters — the keys of :func:`_replay_figures`.
REPLAY_KEYS = ("trace_len", "trace_sha256", "events_executed", "messages_sent")


def _replay_figures(deployment: Deployment, node) -> Figures:
    """``node``'s delivered sequence (length and digest) plus the
    simulator/network totals, keyed by :data:`REPLAY_KEYS`."""
    return {
        "trace_len": node.log.first_undelivered,
        "trace_sha256": trace_sha256(node),
        "events_executed": deployment.sim.events_executed,
        "messages_sent": deployment.network.stats.messages_sent,
    }


# ---------------------------------------------------------------------------
# perf — the canonical profiling scenario, unbatched vs batched votes
# ---------------------------------------------------------------------------

#: The profiling scenario (keep in sync with PERF.md).
PERF_SCENARIO = dict(
    num_nodes=8,
    random_seed=42,
    num_clients=16,
    total_rate=2000.0,
    duration=10.0,
)

#: Minimum fraction of wire messages batching must save on the scenario.
MIN_MESSAGE_REDUCTION = 0.30


def perf_deployment(
    batch_flush_interval: float = 0.0, obs: Optional[ObsConfig] = None
) -> Deployment:
    """The profiling-scenario deployment (optionally wire-batched).

    Default ISS configuration on the *unscaled* 1 Gbps WAN — unlike the
    golden scenarios, which is why it does not go through
    :mod:`repro.harness.scenarios`.  :mod:`repro.gate.obs` measures tracing
    overhead on this same deployment.
    """
    s = PERF_SCENARIO
    return Deployment(
        config=ISSConfig(num_nodes=s["num_nodes"], random_seed=s["random_seed"]),
        workload=WorkloadConfig(
            num_clients=s["num_clients"],
            total_rate=s["total_rate"],
            duration=s["duration"],
        ),
        network_config=NetworkConfig(batch_flush_interval=batch_flush_interval),
        obs=obs,
    )


def _perf_run(batch_flush_interval: float, obs: ObsConfig) -> Dict[str, float]:
    deployment = perf_deployment(batch_flush_interval, obs)
    start = time.perf_counter()
    report = deployment.run().report
    wall = time.perf_counter() - start
    events = deployment.sim.events_executed
    stats = deployment.network.stats
    return {
        "wall_time_s": round(wall, 4),
        "events_executed": events,
        "events_per_wall_sec": round(events / wall, 1),
        "requests_submitted": report.submitted,
        "requests_completed": report.completed,
        "requests_per_wall_sec": round(report.completed / wall, 1),
        "virtual_duration_s": PERF_SCENARIO["duration"],
        "messages_sent": stats.messages_sent,
        "bytes_sent": stats.bytes_sent,
        "batches_sent": stats.batches_sent,
        "payloads_batched": stats.payloads_batched,
        "virtual_throughput_rps": round(report.throughput, 1),
    }


def perf_figures(obs: ObsConfig) -> Figures:
    """8 nodes, 16 clients, 2,000 req/s, 10 virtual s on the 1 Gbps WAN:
    once unbatched (top-level keys), once with 20 ms batched votes
    (``batched``), plus the message/event reduction batching achieves.

    Wall-clock figures are recorded, not gated — speed on this scenario is
    gated by the repo benchmark's ``sim_n8`` workload (``benchmarks/e2e``).
    """
    flush = scenarios.DEFAULT_FLUSH_INTERVAL
    figures: Figures = dict(_perf_run(0.0, obs))
    batched = _perf_run(flush, obs)
    figures["batched"] = batched
    figures["batch_flush_interval_s"] = flush
    figures["message_reduction"] = round(
        1.0 - batched["messages_sent"] / figures["messages_sent"], 4
    )
    figures["event_reduction"] = round(
        1.0 - batched["events_executed"] / figures["events_executed"], 4
    )
    return figures


PERF_CLAIMS: Tuple[Claim, ...] = (
    (
        lambda f: f["message_reduction"] >= MIN_MESSAGE_REDUCTION,
        "BATCHING REGRESSION: the batched-vote run cut wire messages by only "
        "{message_reduction:.1%}, below the required 30% (unbatched "
        "{messages_sent}, batched {batched[messages_sent]})",
    ),
)


# ---------------------------------------------------------------------------
# recovery — crash → restart → WAL replay + state transfer
# ---------------------------------------------------------------------------

#: Crashes *after* the victim's first stable checkpoint so every recovery
#: phase is exercised: sealed-run replay, WAL-tail replay, certificate
#: restoration, and state transfer for the epochs ordered while it was down.
RECOVERY_SCENARIO = dict(
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


def recovery_figures(obs: ObsConfig) -> Figures:
    """Node 1 crashed mid-epoch at t=10 s and restarted at t=18 s; pins the
    recovery record and the victim's delivered sequence (same seed ⇒ same
    crash ⇒ same WAL ⇒ same recovery)."""
    s = RECOVERY_SCENARIO
    deployment = scenarios.deployment(
        s["protocol"],
        s["num_nodes"],
        [
            CrashSpec(node=s["victim"], trigger="at-time", time=s["crash_time"]),
            RestartSpec(node=s["victim"], time=s["restart_time"]),
        ],
        rate=s["total_rate"],
        duration=s["duration"],
        num_clients=s["num_clients"],
        seed=s["random_seed"],
        obs=obs,
    )
    result = deployment.run()
    row = scenarios.row(deployment, result)
    return {
        "scenario": dict(s),
        "recovery": row["recoveries"][0],
        "caught_up": row["caught_up"],
        "prefix_matches": row["prefixes_identical"],
        **_replay_figures(deployment, result.nodes[s["victim"]]),
        "wal_appended_total": row["wal_appended_total"],
        "snapshots_installed_total": row["snapshots_installed_total"],
    }


RECOVERY_CLAIMS: Tuple[Claim, ...] = (
    (
        lambda f: f["caught_up"],
        "RECOVERY REGRESSION: the restarted node never caught up "
        "(time_to_caught_up = -1)",
    ),
    (
        lambda f: f["prefix_matches"],
        "RECOVERY SAFETY VIOLATION: the restarted node's delivered sequence "
        "diverged from a never-crashed peer's",
    ),
)


# ---------------------------------------------------------------------------
# byzantine — an equivocating leader
# ---------------------------------------------------------------------------

BYZANTINE_SCENARIO = dict(
    protocol=PROTOCOL_PBFT,
    num_nodes=4,
    random_seed=13,
    num_clients=8,
    total_rate=600.0,
    duration=20.0,
    adversary=3,
    behaviour=BYZ_EQUIVOCATE,
)


def byzantine_figures(obs: ObsConfig) -> Figures:
    """Node 3 sends conflicting SB proposals to different peers from the
    start; pins a correct node's delivered sequence and the detection
    counters — an adversarial schedule is still a seeded schedule."""
    s = BYZANTINE_SCENARIO
    deployment = scenarios.deployment(
        s["protocol"],
        s["num_nodes"],
        byzantine_leaders(1, s["num_nodes"], behaviour=s["behaviour"]),
        rate=s["total_rate"],
        duration=s["duration"],
        num_clients=s["num_clients"],
        seed=s["random_seed"],
        obs=obs,
    )
    result = deployment.run()
    row = scenarios.row(deployment, result)
    sample = result.nodes[0]  # the lowest-numbered correct node
    return {
        "scenario": dict(s),
        "completed": result.report.completed,
        "prefixes_identical": row["prefixes_identical"],
        "adversary_evicted": row["adversaries_evicted"],
        "equivocations_sent": deployment.injector.adversary_for(
            s["adversary"]
        ).equivocations_sent,
        # Summed over every node, the adversary included.
        "equivocations_detected_total": sum(
            node.equivocations_detected for node in result.nodes
        ),
        "nil_committed": row["nil_committed"],
        **_replay_figures(deployment, sample),
    }


BYZANTINE_CLAIMS: Tuple[Claim, ...] = (
    (
        lambda f: f["prefixes_identical"],
        "BYZANTINE SAFETY VIOLATION: correct nodes' delivered sequences "
        "diverged under equivocation",
    ),
    (
        lambda f: f["completed"] > 0,
        "BYZANTINE LIVENESS VIOLATION: nothing was delivered",
    ),
    (
        lambda f: f["adversary_evicted"],
        "BYZANTINE CONTAINMENT REGRESSION: the Blacklist policy failed to "
        "evict the equivocating leader",
    ),
    (
        lambda f: f["equivocations_detected_total"] > 0,
        "BYZANTINE DETECTION REGRESSION: no correct node detected the "
        "equivocation",
    ),
)


# ---------------------------------------------------------------------------
# client-abuse — the Section 3.7 defences under three simultaneous attacks
# ---------------------------------------------------------------------------

CLIENT_ABUSE_SCENARIO = dict(
    protocol=PROTOCOL_PBFT,
    num_nodes=4,
    random_seed=17,
    num_clients=8,
    total_rate=400.0,
    duration=12.0,
    window=scenarios.CLIENT_ABUSE_WINDOW,
    watermark_abuser=7,
    duplicate_flooder=6,
    forger=5,
    forgery_victim=0,
)


def client_abuse_figures(obs: ObsConfig) -> Figures:
    """Three of 8 clients attack from the start — client 7 abuses
    watermarks, client 6 floods duplicates, client 5 forges client 0's
    identity; pins the delivered sequence and every rejection counter."""
    s = CLIENT_ABUSE_SCENARIO
    deployment = scenarios.deployment(
        s["protocol"],
        s["num_nodes"],
        [
            MaliciousClientSpec(
                client=s["watermark_abuser"], behaviour=CLIENT_WATERMARK_ABUSE
            ),
            MaliciousClientSpec(
                client=s["duplicate_flooder"], behaviour=CLIENT_DUPLICATE_FLOOD
            ),
            MaliciousClientSpec(
                client=s["forger"],
                behaviour=CLIENT_FORGED_SIGNATURE,
                victim=s["forgery_victim"],
            ),
        ],
        rate=s["total_rate"],
        duration=s["duration"],
        num_clients=s["num_clients"],
        seed=s["random_seed"],
        obs=obs,
        client_watermark_window=s["window"],
        send_client_responses=True,
    )
    result = deployment.run()
    row = scenarios.row(deployment, result)
    sample = result.nodes[0]
    per_client = row["client_abuse"]["per_client"]
    abusers = row["client_abuse"]["abusers"]
    return {
        "scenario": dict(s),
        "completed": result.report.completed,
        "correct_all_complete": row["all_complete"],
        "prefixes_identical": row["prefixes_identical"],
        "no_double_delivery": not check_no_double_delivery([sample]),
        "out_of_window_sent": abusers[s["watermark_abuser"]]["out_of_window_sent"],
        "watermark_rejections": per_client[s["watermark_abuser"]]["outside_watermarks"],
        "duplicates_sent": abusers[s["duplicate_flooder"]]["duplicates_sent"],
        "duplicates_absorbed": per_client[s["duplicate_flooder"]]["duplicates"],
        "forged_sent": abusers[s["forger"]]["forged_sent"],
        "forgeries_rejected": per_client[s["forgery_victim"]]["bad_signature"],
        "out_of_order_max": row["out_of_order_max"],
        **_replay_figures(deployment, sample),
    }


CLIENT_ABUSE_CLAIMS: Tuple[Claim, ...] = (
    (
        lambda f: f["correct_all_complete"],
        "CLIENT-ABUSE LIVENESS VIOLATION: a correct client's requests did "
        "not all complete under abuse",
    ),
    (
        lambda f: f["prefixes_identical"],
        "CLIENT-ABUSE SAFETY VIOLATION: nodes' delivered sequences diverged "
        "under abusive clients",
    ),
    (
        lambda f: f["no_double_delivery"],
        "CLIENT-ABUSE IDEMPOTENCE VIOLATION: a duplicate-flooded request was "
        "delivered twice",
    ),
    (
        lambda f: 0 < f["out_of_window_sent"] <= f["watermark_rejections"],
        "CLIENT-ABUSE CONTAINMENT REGRESSION: far-out timestamps were not "
        "all rejected at the watermark window",
    ),
    (
        lambda f: 0 < f["forged_sent"] <= f["forgeries_rejected"],
        "CLIENT-ABUSE CONTAINMENT REGRESSION: forged-identity requests were "
        "not all rejected at the signature check",
    ),
    (
        lambda f: f["duplicates_sent"] > 0 and f["duplicates_absorbed"] > 0,
        "CLIENT-ABUSE CONTAINMENT REGRESSION: the duplicate flood was not "
        "absorbed and counted",
    ),
    (
        lambda f: f["out_of_order_max"]
        <= f["scenario"]["window"] * f["scenario"]["num_clients"],
        "CLIENT-ABUSE MEMORY REGRESSION: a node's out-of-order watermark "
        "buffer exceeded the window bound",
    ),
)


# ---------------------------------------------------------------------------
# partition — a minority partition behind a lossy link
# ---------------------------------------------------------------------------

PARTITION_SCENARIO = dict(
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
)


def partition_figures(obs: ObsConfig) -> Figures:
    """Node 3 cut off from the majority for t∈[3, 9) while the 2→1 link
    drops 20 % of its payloads all run long (re-offered after 0.5 s, so
    loss costs latency, never correctness), graceful degradation armed;
    pins the delivered sequence and the drop/retry/reconvergence counters."""
    s = PARTITION_SCENARIO
    deployment = scenarios.deployment(
        s["protocol"],
        s["num_nodes"],
        faults=[
            *minority_partition(
                1, s["num_nodes"], s["partition_start"], s["partition_heal"]
            ),
            LinkFaultSpec(
                src=s["lossy_src"],
                dst=s["lossy_dst"],
                loss_rate=s["loss_rate"],
                retransmit=s["lossy_retransmit"],
                seed=s["random_seed"],
            ),
        ],
        rate=s["total_rate"],
        duration=s["duration"],
        num_clients=s["num_clients"],
        seed=s["random_seed"],
        drain_time=15.0,
        obs=obs,
        **dict(scenarios.GRACEFUL, client_retry_timeout=s["client_retry_timeout"]),
    )
    result = deployment.run()
    row = scenarios.row(deployment, result)
    sample = result.nodes[0]
    drops = row["drops_by_cause"]
    return {
        "scenario": dict(s),
        "completed": result.report.completed,
        "all_complete": row["all_complete"],
        "prefixes_identical": row["prefixes_identical"],
        "no_double_delivery": not check_no_double_delivery([sample]),
        "laggards": list(row["partition_records"][0]["laggards"]),
        "isolated_probes_sent": (
            result.nodes[s["isolated_node"]].state_transfer.probes_sent
        ),
        "time_to_reconverge": row["time_to_reconverge"],
        "view_changes_during": row["view_changes_during"],
        "partition_drops": drops["partition"],
        "link_fault_drops": drops["link-fault"],
        "link_retransmissions": sum(
            fault["payloads_retransmitted"] for fault in row["link_faults"]
        ),
        "client_retries": row["client_retries"],
        **_replay_figures(deployment, sample),
    }


PARTITION_CLAIMS: Tuple[Claim, ...] = (
    (
        lambda f: f["all_complete"],
        "PARTITION LIVENESS VIOLATION: a client's requests did not all "
        "complete through the retry loop after the heal",
    ),
    (
        lambda f: f["prefixes_identical"],
        "PARTITION SAFETY VIOLATION: nodes' delivered sequences diverged "
        "across the partition",
    ),
    (
        lambda f: f["no_double_delivery"],
        "PARTITION IDEMPOTENCE VIOLATION: a retried request was delivered "
        "twice",
    ),
    (
        lambda f: f["scenario"]["isolated_node"] in f["laggards"],
        "PARTITION MEASUREMENT REGRESSION: the isolated node was not behind "
        "the frontier at heal time",
    ),
    (
        lambda f: f["isolated_probes_sent"] >= 1,
        "PARTITION RECOVERY REGRESSION: the isolated node never sent its own "
        "open-ended state-transfer probe after the heal",
    ),
    (
        lambda f: f["time_to_reconverge"] >= 0,
        "PARTITION RECOVERY REGRESSION: the minority side never reconverged "
        "after the heal",
    ),
    (
        lambda f: f["partition_drops"] > 0,
        "PARTITION ACCOUNTING REGRESSION: no payload drops were attributed "
        "to the partition (batching hiding drops?)",
    ),
    (
        lambda f: f["link_fault_drops"] > 0,
        "PARTITION ACCOUNTING REGRESSION: no payload drops were attributed "
        "to the lossy link (batching hiding drops?)",
    ),
    (
        lambda f: f["link_retransmissions"] > 0,
        "PARTITION TRANSPORT REGRESSION: the lossy link dropped payloads but "
        "the reliable transport never re-offered one",
    ),
    (
        lambda f: f["client_retries"] > 0,
        "PARTITION RETRY REGRESSION: clients rode out the partition without "
        "a single retry — the retry loop is not running",
    ),
)


# ---------------------------------------------------------------------------
# membership — one join and one removal ordered as ConfigTxs
# ---------------------------------------------------------------------------

MEMBERSHIP_SCENARIO = dict(
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


def membership_figures(obs: ObsConfig) -> Figures:
    """Replica 4 added at t=3 s and replica 0 removed at t=10 s, both as
    ConfigTxs ordered in the log; pins the activation schedule and the
    delivered sequence of a never-reconfigured replica (node 1)."""
    s = MEMBERSHIP_SCENARIO
    deployment = scenarios.deployment(
        s["protocol"],
        s["num_nodes"],
        faults=[
            MembershipSpec(node=s["join_node"], action=MEMBER_ADD, time=s["join_time"]),
            MembershipSpec(
                node=s["leave_node"], action=MEMBER_REMOVE, time=s["leave_time"]
            ),
        ],
        rate=s["total_rate"],
        duration=s["duration"],
        num_clients=s["num_clients"],
        seed=s["random_seed"],
        drain_time=8.0,
        obs=obs,
        epoch_length=s["epoch_length"],
        **scenarios.GRACEFUL,
    )
    result = deployment.run()
    row = scenarios.row(deployment, result)
    joins = row["joins"]
    return {
        "scenario": dict(s),
        "activations": [
            [a["epoch"], list(a["added"]), list(a["removed"])]
            for a in row["activations"]
        ],
        "final_view": list(row["final_view"]),
        "joins": len(joins),
        "all_joined": row["all_joined"],
        "time_to_join": max((j["time_to_join"] for j in joins), default=-1.0),
        "config_txs_committed": row["config_txs_committed"],
        "submitted": row["submitted"],
        "completed": row["completed"],
        "all_complete": row["all_complete"],
        "violations": check_invariants(result),
        **_replay_figures(deployment, result.nodes[s["reference"]]),
    }


MEMBERSHIP_CLAIMS: Tuple[Claim, ...] = (
    (
        lambda f: f["all_joined"] and f["joins"] >= 1,
        "MEMBERSHIP REGRESSION: the added replica never reached the cluster "
        "frontier (time_to_join = -1)",
    ),
    (
        lambda f: f["final_view"]
        == [
            n
            for n in range(f["scenario"]["num_nodes"] + 1)
            if n != f["scenario"]["leave_node"]
        ],
        "MEMBERSHIP REGRESSION: final view {final_view} is not the genesis "
        "set plus the joiner minus the leaver (add and removal must both "
        "activate)",
    ),
    (
        lambda f: f["all_complete"],
        "MEMBERSHIP REGRESSION: only {completed} of {submitted} requests "
        "completed through the reconfigurations",
    ),
    (
        lambda f: not f["violations"],
        "MEMBERSHIP SAFETY VIOLATION: {violations}",
    ),
)
