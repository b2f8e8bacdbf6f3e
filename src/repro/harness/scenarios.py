"""Prebuilt experiment scenarios, one per table/figure of the evaluation.

Every experiment has the same shape — a protocol configuration, an
open-loop workload and one fault list — so every scenario is built by one
function, :func:`deployment`, and read back by one function, :func:`row`,
whose plain-dict figures both print as paper-style rows and attach to
pytest-benchmark ``extra_info``.  The golden gates
(:mod:`repro.gate.simulated`) build their pinned runs through the same
pair, so a gate and a figure run the same deployment by construction.

Scaling: the simulated deployments are necessarily smaller than the paper's
(node counts, epoch length, NIC bandwidth and experiment duration are scaled
down so a figure regenerates in seconds-to-minutes of wall clock).
:func:`bench_scale` (``REPRO_BENCH_SCALE``) is the figure suite's one size
dial; everything else about a scenario's shape is an argument of the function
that builds it.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..baselines.mirbft import MirBFTNode
from ..baselines.single_leader import single_leader_policy
from ..core.config import (
    ISSConfig,
    NetworkConfig,
    WorkloadConfig,
    PROTOCOL_HOTSTUFF,
    PROTOCOL_PBFT,
    PROTOCOL_RAFT,
    POLICY_BACKOFF,
    POLICY_BLACKLIST,
    POLICY_SIMPLE,
)
from ..core.iss import ISSNode
from ..core.segment import LAYOUT_CONTIGUOUS, LAYOUT_ROUND_ROBIN
from ..core.state_transfer import DEFAULT_PROBE_STAGGER
from ..core.validation import REJECTION_REASONS
from ..obs.config import ObsConfig
from ..runtime.faults import (
    BYZ_CENSOR,
    BYZ_EQUIVOCATE,
    CLIENT_BUCKET_BIAS,
    CLIENT_DUPLICATE_FLOOD,
    CLIENT_FORGED_SIGNATURE,
    CLIENT_WATERMARK_ABUSE,
    MALICIOUS_CLIENT_BEHAVIOURS,
    ByzantineSpec,
    CrashSpec,
    LinkFaultSpec,
    MaliciousClientSpec,
    MembershipSpec,
    PartitionSpec,
    RestartSpec,
)
from ..sim.client_adversary import bias_capacity
from ..workload.faults import (
    abusive_clients,
    bridge_partition,
    byzantine_leaders,
    censorship_targets,
    epoch_end_crashes,
    epoch_start_crashes,
    eviction_watch,
    flapping_links,
    membership_additions,
    minority_partition,
    one_way_blocks,
    rolling_upgrade_specs,
    stragglers,
)
from .invariants import (
    check_invariants,
    delivered_trace,
    reporting_tracker,
    traces_agree,
)
from .runner import Deployment, PolicyFactory


# ---------------------------------------------------------------------------
# Scaled-down experiment parameters
# ---------------------------------------------------------------------------

#: NIC bandwidth used by the scaled-down experiments.  The paper rate-limits
#: real NICs to 1 Gbps; the simulation scales this down (together with the
#: offered load) so saturation happens at a few thousand requests per second,
#: which keeps event counts tractable.  The throughput *shape* across
#: configurations is preserved because every configuration shares the scale.
SCALED_BANDWIDTH_BPS = 20e6

#: Paper request payload (average Bitcoin transaction size).
PAYLOAD_BYTES = 500


#: Default benchmark scale.  Raised from 1.0 after the hot-path overhaul
#: (PR 1, ~2.8× faster) and the wire-batching layer (PR 2, ~35–40 % fewer
#: events at 8–16 nodes) made larger figure runs affordable.
DEFAULT_BENCH_SCALE = 2.0

#: Wire-batching flush tick of the benchmark scenarios (seconds); shared
#: with the perf gate so its batched run cannot drift from the figure
#: benchmarks.  See PERF.md.
DEFAULT_FLUSH_INTERVAL = 0.02


def bench_scale() -> float:
    """Global scale factor for benchmark sizes (env var ``REPRO_BENCH_SCALE``).

    Unparseable values fall back to :data:`DEFAULT_BENCH_SCALE`; anything
    below 0.25 is clamped so scenarios keep enough nodes to be meaningful.
    """
    try:
        return max(
            0.25, float(os.environ.get("REPRO_BENCH_SCALE", str(DEFAULT_BENCH_SCALE)))
        )
    except ValueError:
        return DEFAULT_BENCH_SCALE


def scaled_network() -> NetworkConfig:
    """Scaled-down WAN shared by all figure benchmarks (wire batching on)."""
    return NetworkConfig(
        bandwidth_bps=SCALED_BANDWIDTH_BPS,
        batch_flush_interval=DEFAULT_FLUSH_INTERVAL,
    )


#: Cloud regions available to :func:`wan_regions`, ordered so a prefix of
#: any length is a sensible deployment (two US coasts, two European sites,
#: then Asia-Pacific and South America).
WAN_REGIONS: Tuple[str, ...] = (
    "us-east", "us-west", "eu-west", "eu-central",
    "ap-northeast", "ap-southeast", "sa-east", "ap-south",
)

#: One-way inter-region latencies in seconds (half the public-cloud RTT
#: tables, rounded).  Row/column order follows :data:`WAN_REGIONS`; the
#: diagonal is unused (intra-region hops take the configured intra-DC
#: latency).
WAN_ONE_WAY_LATENCY: Tuple[Tuple[float, ...], ...] = (
    # us-east us-west eu-west eu-cent ap-ne   ap-se   sa-east ap-south
    (0.0,    0.033,  0.038,  0.045,  0.080,  0.108,  0.058,  0.093),   # us-east
    (0.033,  0.0,    0.065,  0.073,  0.053,  0.083,  0.088,  0.110),   # us-west
    (0.038,  0.065,  0.0,    0.013,  0.105,  0.088,  0.093,  0.060),   # eu-west
    (0.045,  0.073,  0.013,  0.0,    0.113,  0.080,  0.103,  0.055),   # eu-central
    (0.080,  0.053,  0.105,  0.113,  0.0,    0.035,  0.128,  0.063),   # ap-northeast
    (0.108,  0.083,  0.088,  0.080,  0.035,  0.0,    0.163,  0.030),   # ap-southeast
    (0.058,  0.088,  0.093,  0.103,  0.128,  0.163,  0.0,    0.150),   # sa-east
    (0.093,  0.110,  0.060,  0.055,  0.063,  0.030,  0.150,  0.0),     # ap-south
)


def wan_regions(
    num_regions: int = 4, batch_flush_interval: float = DEFAULT_FLUSH_INTERVAL
) -> NetworkConfig:
    """Geo-realistic WAN: the first ``num_regions`` of :data:`WAN_REGIONS`.

    Unlike :func:`scaled_network`'s synthetic ring matrix, this installs
    measured one-way latencies between named cloud regions
    (:data:`WAN_ONE_WAY_LATENCY`), which is what the Figure 5 scalability
    sweeps use: nodes spread round-robin over regions, so growing ``n``
    adds replicas without changing the latency geometry.  Region pairs
    spread from 13 ms (Dublin–Frankfurt) to 163 ms (Singapore–São Paulo).

    The NIC is :data:`SCALED_BANDWIDTH_BPS`; ``batch_flush_interval``
    defaults to the benchmark flush tick, ``0.0`` disables wire batching.
    """
    if not 1 <= num_regions <= len(WAN_REGIONS):
        raise ValueError(
            f"num_regions must be in 1..{len(WAN_REGIONS)}, got {num_regions}"
        )
    matrix = [
        [WAN_ONE_WAY_LATENCY[a][b] for b in range(num_regions)]
        for a in range(num_regions)
    ]
    return NetworkConfig(
        bandwidth_bps=SCALED_BANDWIDTH_BPS,
        num_datacenters=num_regions,
        dc_latency_matrix=matrix,
        batch_flush_interval=batch_flush_interval,
    )


def iss_config(protocol: str, num_nodes: int, **overrides) -> ISSConfig:
    """Scaled-down ISS configuration following the structure of Table 1."""
    defaults = dict(
        epoch_length=32,
        max_batch_size=128,
        batch_rate=16.0,
        min_batch_timeout=0.0,
        max_batch_timeout=1.0,
        min_segment_size=2,
        view_change_timeout=5.0,
        epoch_change_timeout=5.0,
        buckets_per_leader=16,
        client_watermark_window=1 << 16,
        send_client_responses=False,
        client_signatures=True,
        byzantine=True,
    )
    if protocol == PROTOCOL_HOTSTUFF:
        defaults.update(batch_rate=None, min_batch_timeout=0.1, max_batch_timeout=0.0, min_segment_size=4)
    if protocol == PROTOCOL_RAFT:
        defaults.update(byzantine=False, client_signatures=False, min_segment_size=4,
                        election_timeout=(5.0, 10.0))
    defaults.update(overrides)
    return ISSConfig(num_nodes=num_nodes, protocol=protocol, **defaults)


#: Graceful degradation, as :func:`iss_config` overrides: client responses
#: on (retry completion is the point) and the client retry loop (2 s initial
#: timeout, backed off up to 8 s).  The partition, membership and fuzz
#: scenarios run with it (and a long ``drain_time``): clients ride out a
#: partition or a reconfiguration through retries, which is what lets them
#: gate on 100 % completion.  View-change hardening, timer jitter and the
#: stalled-epoch grace are protocol behaviour and need no override.
GRACEFUL: Dict[str, object] = dict(
    send_client_responses=True,
    client_retry_timeout=2.0,
    client_retry_max_timeout=8.0,
)

#: The systems of the Figure 5/6 comparisons, as :func:`deployment`
#: keyword arguments.  ``"single"`` is the single-leader baseline: the same
#: engines with node 0 leading one segment over the whole log and no
#: deployment-wide batch rate (see :mod:`repro.baselines.single_leader`).
SYSTEMS: Dict[str, Dict[str, object]] = {
    "iss": {},
    "single": dict(
        policy_factory=single_leader_policy, batch_rate=None, min_segment_size=1
    ),
    "mirbft": dict(node_class=MirBFTNode),
}


# ---------------------------------------------------------------------------
# The one builder and the one reader
# ---------------------------------------------------------------------------

def deployment(
    protocol: str,
    num_nodes: int,
    faults: Sequence[object] = (),
    *,
    rate: float,
    duration: float,
    num_clients: int = 8,
    seed: int = 42,
    drain_time: float = 5.0,
    network: Optional[NetworkConfig] = None,
    obs: Optional[ObsConfig] = None,
    node_class: Type[ISSNode] = ISSNode,
    policy_factory: Optional[PolicyFactory] = None,
    layout: str = LAYOUT_ROUND_ROBIN,
    probe_stagger: float = DEFAULT_PROBE_STAGGER,
    **config_overrides,
) -> Deployment:
    """One scenario: ``protocol`` on ``num_nodes`` replicas, ``num_clients``
    open-loop clients offering ``rate`` req/s of :data:`PAYLOAD_BYTES`
    payloads for ``duration`` virtual seconds, and the fault list
    ``faults`` (any mix of :mod:`repro.runtime.faults` specs).

    ``config_overrides`` go to :func:`iss_config` (``seed`` is its
    ``random_seed``) — :data:`GRACEFUL` and :data:`SYSTEMS` are such
    overrides; ``network`` defaults to :func:`scaled_network`; the rest are
    :class:`~repro.harness.runner.Deployment`'s own arguments.
    ``drain_time`` is the quiet tail after the workload stops: scenarios
    that assert completion *through* a fault give it room.
    """
    config = iss_config(protocol, num_nodes, random_seed=seed, **config_overrides)
    if not config.client_signatures and any(
        isinstance(spec, MaliciousClientSpec)
        and spec.behaviour == CLIENT_FORGED_SIGNATURE
        for spec in faults
    ):
        # Without client signatures (Raft's CFT configuration) identity
        # forgery is trivially possible and outside the fault model — the
        # "attack" would be accepted and prove nothing about the defence.
        raise ValueError(
            f"forged-signature abuse needs client signatures, which the "
            f"{protocol!r} configuration disables"
        )
    return Deployment(
        config,
        network_config=network or scaled_network(),
        workload=WorkloadConfig(
            num_clients=num_clients,
            total_rate=rate,
            duration=duration,
            payload_size=PAYLOAD_BYTES,
        ),
        faults=faults,
        drain_time=drain_time,
        obs=obs,
        node_class=node_class,
        policy_factory=policy_factory,
        layout=layout,
        probe_stagger=probe_stagger,
    )


def row(deployment: Deployment, result) -> Dict[str, object]:
    """The figures of one finished :func:`deployment` run, as a flat dict.

    Every row carries the common figures: protocol, nodes, throughput,
    latency mean/p95, ``prefixes_identical`` — prefix agreement over the
    *correct live* nodes (Byzantine and crashed ones excluded) — and, when
    the run sends client responses (without them no client learns of a
    completion), ``submitted``/``completed``/``all_complete`` over the
    *correct* clients (malicious ones excluded).  It then adds one section
    per kind of fault the run contained — recoveries, byzantine, client
    abuse, partitions, membership — read from the run's own nodes,
    clients, storages, fault injector and collector, so a row holds what
    its run contained, whoever asks.
    """
    report = result.report
    abusive = {spec.client for spec in deployment.faults_of(MaliciousClientSpec)}
    clients = [c for c in result.clients if c.client_id not in abusive]
    adversaries = {spec.node for spec in deployment.faults_of(ByzantineSpec)}
    correct = [
        node
        for node in result.nodes
        if node.node_id not in adversaries and not node.crashed
    ]
    figures: Dict[str, object] = {
        "protocol": deployment.config.protocol,
        "nodes": deployment.config.num_nodes,
        "throughput": report.throughput,
        "latency_mean": report.latency.mean,
        "latency_p95": report.latency.p95,
        "prefixes_identical": traces_agree([delivered_trace(n) for n in correct]),
    }
    if deployment.config.send_client_responses:
        figures.update(
            submitted=sum(c.requests_submitted for c in clients),
            completed=sum(c.requests_completed for c in clients),
            all_complete=all(
                c.requests_completed == c.requests_submitted for c in clients
            ),
        )
    if report.recoveries:
        # One record per restart (see Deployment._on_node_restart).
        storages = result.storages.values()
        figures.update(
            recoveries=report.recoveries,
            caught_up=all(
                r["time_to_caught_up"] >= 0.0 for r in report.recoveries
            ),
            wal_appended_total=float(sum(s.wal.appended_total for s in storages)),
            snapshots_installed_total=float(
                sum(s.wal.seals_total for s in storages)
            ),
        )
    if deployment.faults_of(ByzantineSpec):
        figures.update(_byzantine_figures(deployment, result, correct))
    if deployment.faults_of(MaliciousClientSpec):
        figures.update(_client_abuse_figures(deployment, result))
    if deployment.faults_of(PartitionSpec) or deployment.faults_of(LinkFaultSpec):
        counters = deployment.obs_counters()
        records = deployment.injector.partition_records()
        figures.update(
            reconverged=all(r.get("time_to_reconverge", -1.0) >= 0.0 for r in records),
            time_to_reconverge=max(
                (r.get("time_to_reconverge", -1.0) for r in records), default=0.0
            ),
            view_changes_during=sum(r.get("view_changes_during", 0) for r in records),
            client_retries=counters["client_retries_total"],
            drops_by_cause=counters["drops_by_cause"],
            partition_records=[dict(r) for r in records],
            link_faults=deployment.injector.link_fault_stats(),
        )
    if deployment.faults_of(MembershipSpec):
        tracker = reporting_tracker(result.nodes)
        joins = deployment.joins
        figures.update(
            violations=check_invariants(result),
            activations=deployment.activations,
            final_view=[int(n) for n in tracker.current_view().nodes],
            joins=joins,
            all_joined=all(j["time_to_join"] >= 0.0 for j in joins),
            time_to_join_max=max((j["time_to_join"] for j in joins), default=0.0),
            removed=sorted(deployment.removed),
            evictions=deployment.evictions,
            config_txs_committed=len(tracker.committed_txs),
        )
    return figures


def _byzantine_figures(deployment: Deployment, result, correct) -> Dict[str, object]:
    """The byzantine section of :func:`row`: the ``correct`` nodes' own
    detection counters, whether the leader-selection policy (Blacklist by
    default) evicted the adversaries from the final epoch's leaderset,
    and the collector's censored-bucket figures."""
    specs = deployment.faults_of(ByzantineSpec)
    sample = correct[0]
    final_leaders = sample.manager.leaders_for(sample.current_epoch)
    figures: Dict[str, object] = {
        "byz_behaviour": specs[0].behaviour if specs else "none",
        "adversaries": len(specs),
        "nil_committed": sample.nil_committed,
        "equivocations_detected": sum(n.equivocations_detected for n in correct),
        "invalid_sigs_rejected": sum(
            n.invalid_signatures_rejected() for n in correct
        ),
        "adversaries_evicted": all(spec.node not in final_leaders for spec in specs),
        "final_leaderset_size": len(final_leaders),
    }
    censored = result.collector.censored()
    if censored is not None:
        figures["censored_submitted"] = censored["submitted"]
        figures["censored_completed"] = censored["completed"]
        figures["censored_latency_mean"] = censored["latency"].mean
        figures["censored_latency_p95"] = censored["latency"].p95
    return figures


def _client_abuse_figures(deployment: Deployment, result) -> Dict[str, object]:
    """The client-abuse section of :func:`row`: whether each abusive
    submission class was rejected-and-counted at the nodes and whether
    node memory stayed bounded (watermark out-of-order buffers).

    ``client_abuse`` holds the raw counters: ``per_client`` sums, over the
    current node incarnations, the rejections attributed to each claimed
    client identity (forged signatures count under the impersonated
    victim — the only identity a node can observe) plus the duplicate
    submissions absorbed for it; ``abusers`` carries each abusive client's
    own attack counters and ``adversaries`` maps client id → behaviour.
    """
    config = deployment.config
    specs = deployment.faults_of(MaliciousClientSpec)
    nodes = result.nodes
    per_client: Dict[int, Dict[str, int]] = {}

    def entry_for(client: int) -> Dict[str, int]:
        return per_client.setdefault(
            client, dict.fromkeys((*REJECTION_REASONS, "duplicates"), 0)
        )

    for node in nodes:
        for client, reasons in node.validator.stats.by_client.items():
            entry = entry_for(client)
            for reason, count in reasons.items():
                entry[reason] += count
        for client, count in node.duplicate_requests.items():
            entry_for(client)["duplicates"] += count
    abusers = {spec.client: result.clients[spec.client].abuse_stats() for spec in specs}

    # Every protocol-violating submission class must be rejected and counted
    # at the nodes: far-out timestamps and post-wedge bias as watermark
    # rejections, forgeries as signature rejections (attributed to the
    # claimed victim), flood copies as absorbed duplicates.
    def rejections(client_id: int, reason: str) -> int:
        return per_client.get(client_id, {}).get(reason, 0)

    abuse_contained = True
    for spec in specs:
        stats = abusers[spec.client]
        if spec.behaviour == CLIENT_WATERMARK_ABUSE:
            abuse_contained &= rejections(
                spec.client, "outside_watermarks"
            ) >= stats["out_of_window_sent"] > 0
        elif spec.behaviour == CLIENT_DUPLICATE_FLOOD:
            abuse_contained &= (
                0 < stats["duplicates_sent"] and rejections(spec.client, "duplicates") > 0
            )
        elif spec.behaviour == CLIENT_FORGED_SIGNATURE:
            abuse_contained &= rejections(
                spec.victim, "bad_signature"
            ) >= stats["forged_sent"] > 0
        elif spec.behaviour == CLIENT_BUCKET_BIAS:
            # The c||t hash leaves timestamp-skipping as the only lever, and
            # the window wedges that after ~window/|B| accepted ids (the
            # exact per-(client, target) figure from bias_capacity).
            abuse_contained &= 0 < stats["biased_sent"] and stats[
                "requests_completed"
            ] <= bias_capacity(
                spec.client,
                spec.target_bucket,
                config.client_watermark_window,
                config.num_buckets,
            )
    return {
        "client_behaviour": specs[0].behaviour if specs else "none",
        "abusive": len(specs),
        "abuse_contained": abuse_contained,
        "rejections_total": float(sum(n.validator.stats.rejected for n in nodes)),
        "duplicates_total": float(
            sum(sum(n.duplicate_requests.values()) for n in nodes)
        ),
        "out_of_order_max": max(node.watermarks.out_of_order_entries() for node in nodes),
        "client_abuse": {
            "adversaries": {spec.client: spec.behaviour for spec in specs},
            "per_client": per_client,
            "abusers": abusers,
        },
    }


# ---------------------------------------------------------------------------
# Figure 5 — throughput scalability
# ---------------------------------------------------------------------------

def scalability_peak(
    system: str,
    protocol: str,
    num_nodes: int,
    offered_loads: Sequence[float],
    duration: float = 5.0,
) -> Dict[str, object]:
    """Peak throughput of one (system, protocol, n) point of Figure 5.

    ``system`` is a key of :data:`SYSTEMS`: ``"iss"``, ``"single"`` or
    ``"mirbft"``.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    best = {"throughput": 0.0, "offered": 0.0, "latency": 0.0}
    for rate in offered_loads:
        dep = deployment(
            protocol, num_nodes, rate=rate, duration=duration, **SYSTEMS[system]
        )
        point = row(dep, dep.run())
        if point["throughput"] > best["throughput"]:
            best = {
                "throughput": point["throughput"],
                "offered": rate,
                "latency": point["latency_mean"],
            }
    return {
        "system": system,
        "protocol": protocol,
        "nodes": num_nodes,
        "peak_throughput": best["throughput"],
        "at_offered_load": best["offered"],
        "latency_at_peak": best["latency"],
    }


def scalability_sweep(
    node_counts: Sequence[int] = (4, 8, 16),
    protocols: Sequence[str] = (PROTOCOL_PBFT, PROTOCOL_HOTSTUFF, PROTOCOL_RAFT),
    offered_loads: Sequence[float] = (1000.0, 2000.0),
    duration: float = 5.0,
    include_mirbft: bool = True,
) -> List[Dict[str, object]]:
    """Full Figure 5 sweep: ISS vs single-leader (vs Mir-BFT for PBFT)."""
    rows: List[Dict[str, object]] = []
    for protocol in protocols:
        for n in node_counts:
            rows.append(scalability_peak("iss", protocol, n, offered_loads, duration))
            rows.append(scalability_peak("single", protocol, n, offered_loads, duration))
        if include_mirbft and protocol == PROTOCOL_PBFT:
            for n in node_counts:
                rows.append(scalability_peak("mirbft", protocol, n, offered_loads, duration))
    return rows


# ---------------------------------------------------------------------------
# Figure 6 — latency vs throughput under increasing load
# ---------------------------------------------------------------------------

def latency_throughput_sweep(
    protocol: str,
    num_nodes: int,
    offered_loads: Sequence[float],
    duration: float = 5.0,
    single_leader: bool = False,
) -> List[Dict[str, object]]:
    """One latency-over-throughput curve of Figure 6."""
    system = "single" if single_leader else "iss"
    rows = []
    for rate in offered_loads:
        dep = deployment(
            protocol, num_nodes, rate=rate, duration=duration, **SYSTEMS[system]
        )
        rows.append(dict(row(dep, dep.run()), system=system, offered_load=rate))
    return rows


# ---------------------------------------------------------------------------
# Figure 7 — leader-selection policies under crash faults
# ---------------------------------------------------------------------------

def leader_policy_comparison(
    num_nodes: int = 8,
    rate: float = 800.0,
    duration: float = 30.0,
    crash_kind: str = "epoch-start",
) -> List[Dict[str, object]]:
    """Mean / tail latency per leader-selection policy with one crash."""
    rows = []
    for policy in (POLICY_SIMPLE, POLICY_BACKOFF, POLICY_BLACKLIST):
        if crash_kind == "epoch-start":
            crashes = epoch_start_crashes(1, num_nodes, epoch=0)
        else:
            crashes = epoch_end_crashes(1, num_nodes, epoch=0)
        dep = deployment(
            PROTOCOL_PBFT, num_nodes, crashes, rate=rate, duration=duration,
            leader_policy=policy,
        )
        rows.append(dict(row(dep, dep.run()), policy=policy, crash=crash_kind))
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — crash-fault latency over experiment duration
# ---------------------------------------------------------------------------

def crash_latency_over_duration(
    num_nodes: int = 8,
    rate: float = 800.0,
    durations: Sequence[float] = (20.0, 40.0, 60.0),
    fault_counts: Sequence[int] = (0, 1, 2),
    crash_kind: str = "epoch-start",
) -> List[Dict[str, object]]:
    """Mean/p95 latency as the experiment duration grows (Blacklist policy)."""
    rows = []
    for count in fault_counts:
        for duration in durations:
            if count == 0:
                crashes: Sequence[CrashSpec] = ()
            elif crash_kind == "epoch-start":
                crashes = epoch_start_crashes(count, num_nodes, epoch=0)
            else:
                crashes = epoch_end_crashes(count, num_nodes, epoch=0)
            dep = deployment(
                PROTOCOL_PBFT, num_nodes, crashes, rate=rate, duration=duration,
                leader_policy=POLICY_BLACKLIST,
            )
            rows.append(
                dict(
                    row(dep, dep.run()),
                    faults=count,
                    crash=crash_kind if count else "none",
                    duration=duration,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 9, 10, 12 — throughput over time
# ---------------------------------------------------------------------------

def throughput_timeline(
    num_nodes: int = 8,
    rate: float = 800.0,
    duration: float = 40.0,
    crash_kind: Optional[str] = None,
    straggler_count: int = 0,
    straggler_delay: float = 2.5,
    mirbft: bool = False,
) -> Dict[str, object]:
    """Per-second delivered throughput, optionally under a crash or straggler.

    The per-second series comes from the observability sampler
    (``repro.obs.MetricsSampler``): the run enables a 1 s metrics interval
    and the report's ``throughput_timeline`` is its rate-probed completion
    series — the bespoke per-bucket accounting the timeline benchmarks used
    to carry lives nowhere else anymore.
    """
    faults: List[object] = []
    if crash_kind == "epoch-start":
        faults = epoch_start_crashes(1, num_nodes, epoch=0)
    elif crash_kind == "epoch-end":
        faults = epoch_end_crashes(1, num_nodes, epoch=0)
    if straggler_count:
        faults = faults + stragglers(straggler_count, num_nodes, delay=straggler_delay)
    system = "mirbft" if mirbft else "iss"
    dep = deployment(
        PROTOCOL_PBFT, num_nodes, faults, rate=rate, duration=duration,
        obs=ObsConfig(metrics_interval=1.0), **SYSTEMS[system],
    )
    result = dep.run()
    return dict(
        row(dep, result),
        system=system,
        crash=crash_kind or "none",
        stragglers=straggler_count,
        timeline=result.report.throughput_timeline,
        extra=result.report.extra,
    )


# ---------------------------------------------------------------------------
# Figure 11 — latency/throughput with Byzantine stragglers
# ---------------------------------------------------------------------------

def straggler_sweep(
    num_nodes: int = 8,
    straggler_counts: Sequence[int] = (0, 1, 2),
    rate: float = 800.0,
    duration: float = 30.0,
    straggler_delay: float = 2.5,
) -> List[Dict[str, object]]:
    """Throughput and latency as the number of stragglers grows."""
    rows = []
    for count in straggler_counts:
        specs = stragglers(count, num_nodes, delay=straggler_delay) if count else ()
        dep = deployment(PROTOCOL_PBFT, num_nodes, specs, rate=rate, duration=duration)
        rows.append(dict(row(dep, dep.run()), stragglers=count))
    return rows


# ---------------------------------------------------------------------------
# Ablations (docs/ARCHITECTURE.md, "Model and substitutions")
# ---------------------------------------------------------------------------

def layout_ablation(
    num_nodes: int = 8, rate: float = 800.0, duration: float = 10.0
) -> List[Dict[str, object]]:
    """Round-robin vs contiguous sequence-number interleaving."""
    rows = []
    for layout in (LAYOUT_ROUND_ROBIN, LAYOUT_CONTIGUOUS):
        dep = deployment(
            PROTOCOL_PBFT, num_nodes, rate=rate, duration=duration, layout=layout
        )
        rows.append(dict(row(dep, dep.run()), layout=layout))
    return rows


def epoch_length_ablation(
    num_nodes: int = 8,
    epoch_lengths: Sequence[int] = (16, 32, 64),
    rate: float = 800.0,
    duration: float = 10.0,
) -> List[Dict[str, object]]:
    """Throughput/latency sensitivity to the epoch length."""
    rows = []
    for epoch_length in epoch_lengths:
        dep = deployment(
            PROTOCOL_PBFT, num_nodes, rate=rate, duration=duration,
            epoch_length=epoch_length,
        )
        result = dep.run()
        rows.append(
            dict(
                row(dep, result),
                epoch_length=epoch_length,
                epochs_completed=result.report.extra.get("epochs_completed", 0.0),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Crash-recovery scenarios — crash → restart → WAL replay + state transfer
# ---------------------------------------------------------------------------

def recovery_time_over_downtime(
    num_nodes: int = 4,
    rate: float = 800.0,
    downtimes: Sequence[float] = (5.0, 10.0, 15.0),
    crash_time: float = 3.0,
    tail_time: float = 15.0,
) -> List[Dict[str, object]]:
    """Recovery-time curve (ISS-PBFT): how catch-up cost grows with time
    spent down.

    Node 1 crashes at ``crash_time`` and restarts ``downtime`` seconds
    later from its durable storage.  Longer downtime ⇒ more epochs ordered
    without the victim ⇒ more state transfer on restart.  Each run extends
    the experiment so the node always gets ``tail_time`` seconds of
    post-restart run time to catch up in.
    """
    victim = 1
    rows: List[Dict[str, object]] = []
    for downtime in downtimes:
        dep = deployment(
            PROTOCOL_PBFT,
            num_nodes,
            [
                CrashSpec(node=victim, trigger="at-time", time=crash_time),
                RestartSpec(node=victim, time=crash_time + downtime),
            ],
            rate=rate,
            duration=crash_time + downtime + tail_time,
            seed=11,
        )
        point = row(dep, dep.run())
        # The recovery record (time_to_caught_up, WAL entries replayed,
        # snapshot entries, state-transfer bytes/entries) and its verdicts.
        rows.append(
            dict(
                point["recoveries"][0],
                protocol=PROTOCOL_PBFT,
                downtime=downtime,
                prefix_matches=point["prefixes_identical"],
                caught_up=point["caught_up"],
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure-13-style scenarios — active Byzantine adversaries
# ---------------------------------------------------------------------------

def byzantine_leader_sweep(
    num_nodes: int = 4,
    rate: float = 600.0,
    duration: float = 20.0,
) -> List[Dict[str, object]]:
    """Throughput/latency of ISS-PBFT and ISS-HotStuff with no adversary,
    one equivocating and one censoring leader (Fig. 13 style).

    A single zero-adversary row per protocol (``byz_behaviour="none"``)
    gives the clean baseline every behaviour's row is measured against —
    the baseline deployment is behaviour-independent, so it runs once
    instead of once per behaviour.  Censors target 4 buckets.
    """

    def point(protocol: str, behaviour: str, count: int) -> Dict[str, object]:
        buckets: Sequence[int] = ()
        if behaviour == BYZ_CENSOR:
            buckets = censorship_targets(iss_config(protocol, num_nodes).num_buckets, 4)
        dep = deployment(
            protocol,
            num_nodes,
            byzantine_leaders(count, num_nodes, behaviour=behaviour, buckets=buckets),
            rate=rate,
            duration=duration,
            drain_time=10.0,
        )
        result = dep.run()
        figures = row(dep, result)
        if not count:
            # The clean baseline has no byzantine section; give it the
            # sweep's columns, measured over every (correct, live) node.
            live = [node for node in result.nodes if not node.crashed]
            figures.update(_byzantine_figures(dep, result, live))
        return figures

    rows: List[Dict[str, object]] = []
    for protocol in (PROTOCOL_PBFT, PROTOCOL_HOTSTUFF):
        rows.append(point(protocol, BYZ_EQUIVOCATE, 0))
        for behaviour in (BYZ_EQUIVOCATE, BYZ_CENSOR):
            rows.append(point(protocol, behaviour, 1))
    return rows


def censorship_rotation(
    num_nodes: int = 4,
    rate: float = 600.0,
    duration: float = 16.0,
) -> Dict[str, object]:
    """Bucket rotation vs a censoring leader (the Section 3.2 defence).

    One Byzantine leader censors the first 4 buckets for the whole run;
    the row reports how much of the censored traffic still completed and
    the latency penalty it paid waiting for its buckets to rotate to
    honest leaders.  The generous 15 s drain lets requests submitted
    right before the workload ends complete, so ``censored_completed``
    can reach ``censored_submitted``.
    """
    buckets = censorship_targets(iss_config(PROTOCOL_PBFT, num_nodes).num_buckets, 4)
    dep = deployment(
        PROTOCOL_PBFT,
        num_nodes,
        byzantine_leaders(1, num_nodes, behaviour=BYZ_CENSOR, buckets=buckets),
        rate=rate,
        duration=duration,
        drain_time=15.0,
    )
    figures = row(dep, dep.run())
    submitted = figures["censored_submitted"]
    completed = figures["censored_completed"]
    figures["censored_completion_ratio"] = (completed / submitted) if submitted else 1.0
    figures["latency_penalty"] = (
        figures["censored_latency_mean"] / figures["latency_mean"]
        if figures["latency_mean"]
        else 1.0
    )
    return figures


# ---------------------------------------------------------------------------
# Malicious-client scenarios — the Section 3.7 defences under actual attack
# ---------------------------------------------------------------------------

#: Watermark window used by the client-abuse scenarios: small enough that
#: watermark dynamics (gap stalls, bias wedging) bite within seconds of
#: virtual time, large enough that correct clients never brush against it.
CLIENT_ABUSE_WINDOW = 4096


def client_abuse_sweep(
    protocol: str = PROTOCOL_PBFT,
    behaviours: Sequence[str] = MALICIOUS_CLIENT_BEHAVIOURS,
    abusive_counts: Sequence[int] = (0, 1, 2),
    num_nodes: int = 4,
    num_clients: int = 8,
    rate: float = 400.0,
    duration: float = 10.0,
    flush_interval: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Correct-client throughput/latency as the abusive-client count grows.

    A single zero-abuser row gives the clean baseline (behaviour-independent,
    so it runs once); each behaviour then sweeps the attacked counts.  The
    malicious-client analogue of :func:`byzantine_leader_sweep` — and like
    it, behaviours outside a configuration's fault model are skipped:
    forged signatures are only meaningful when the protocol's clients sign
    (Raft's CFT configuration does not).  Client responses are on and the
    watermark window is :data:`CLIENT_ABUSE_WINDOW`; ``flush_interval``
    overrides the benchmark flush tick (``0.0`` disables wire batching).
    """

    def point(behaviour: str, count: int) -> Dict[str, object]:
        network = None
        if flush_interval is not None:
            network = NetworkConfig(
                bandwidth_bps=SCALED_BANDWIDTH_BPS, batch_flush_interval=flush_interval
            )
        dep = deployment(
            protocol,
            num_nodes,
            abusive_clients(count, num_clients, behaviour=behaviour),
            rate=rate,
            duration=duration,
            num_clients=num_clients,
            drain_time=10.0,
            network=network,
            client_watermark_window=CLIENT_ABUSE_WINDOW,
            send_client_responses=True,
        )
        result = dep.run()
        figures = row(dep, result)
        if not count:
            # The clean baseline has no client-abuse section; give it the
            # sweep's columns.
            figures.update(_client_abuse_figures(dep, result))
        return figures

    rows: List[Dict[str, object]] = []
    signatures_on = iss_config(protocol, num_nodes).client_signatures
    behaviours = [
        behaviour
        for behaviour in behaviours
        if signatures_on or behaviour != CLIENT_FORGED_SIGNATURE
    ]
    attacked_counts = [count for count in abusive_counts if count > 0]
    if 0 in abusive_counts:
        rows.append(point(CLIENT_WATERMARK_ABUSE, 0))  # behaviour irrelevant
    for behaviour in behaviours:
        for count in attacked_counts:
            rows.append(point(behaviour, count))
    return rows


def watermark_stall(
    duration: float = 10.0, drain_time: float = 10.0
) -> Dict[str, object]:
    """A gap-leaving client tries to wedge the watermark machinery.

    Six clients offer 300 req/s to 4 ISS-PBFT nodes with a 256-request
    watermark window.  The last client alternates far-out timestamps with
    deliberate gaps, so its contiguous-prefix low watermark can never
    advance.  The row shows the defence working end to end: the abuser's
    window stalls (bounding its in-flight requests by the window), correct
    clients' watermarks keep advancing and their requests all complete,
    and node memory stays bounded (out-of-order buffers capped by the
    window).
    """
    window = 256
    abuser = 5
    dep = deployment(
        PROTOCOL_PBFT,
        4,
        [MaliciousClientSpec(client=abuser, behaviour=CLIENT_WATERMARK_ABUSE)],
        rate=300.0,
        duration=duration,
        num_clients=6,
        drain_time=drain_time,
        client_watermark_window=window,
        send_client_responses=True,
    )
    result = dep.run()
    sample = result.nodes[0]
    correct_clients = [c for c in result.clients if c.client_id != abuser]
    abusive_stats = result.clients[abuser].abuse_stats()
    return dict(
        row(dep, result),
        abuser=abuser,
        window=window,
        #: The gap pins the abuser's low watermark at (or before) the first
        #: skipped timestamp — it must never clear the window.
        abuser_low_watermark=sample.watermarks.low_watermark(abuser),
        abuser_stalled=sample.watermarks.low_watermark(abuser) < window,
        correct_lows_advanced=all(
            sample.watermarks.low_watermark(c.client_id) > 0 for c in correct_clients
        ),
        gaps_left=abusive_stats["gaps_left"],
        out_of_window_sent=abusive_stats["out_of_window_sent"],
        out_of_order_bounded=all(
            node.watermarks.out_of_order_entries() <= window * len(result.clients)
            for node in result.nodes
        ),
    )


# ---------------------------------------------------------------------------
# Network-chaos scenarios — partitions, degraded links, client retry/backoff
# ---------------------------------------------------------------------------

#: Flap periods swept by :func:`link_flap_sweep` (seconds).
FLAP_PERIODS = (1.0, 2.0, 4.0)


def partition_minority(
    duration: float = 15.0, partition_duration: float = 6.0
) -> Dict[str, object]:
    """Isolate one node (a minority) of 4 ISS-PBFT nodes at 3 s, then heal
    (the canonical partition experiment; 400 req/s).

    While split, the majority side keeps ordering (the minority node's
    segment is filled with ⊥ after a view change) and clients ride out the
    unreachable leader via retry/backoff; the minority node's jittered,
    backed-off timers keep it from storming view changes it can't win.
    When the partition outlasts the view change timeout, the isolated
    node notices the heal itself at the first peer it hears again (it had
    lost its quorum; see ``StateTransfer.heard``): it probes for state
    and nudges its stalled instances, so ``time_to_reconverge`` measures
    the state-transfer path, not an epoch timer.
    """
    specs = minority_partition(1, 4, 3.0, 3.0 + partition_duration)
    dep = deployment(
        PROTOCOL_PBFT, 4, specs, rate=400.0, duration=duration, drain_time=15.0,
        **GRACEFUL,
    )
    return dict(
        row(dep, dep.run()),
        scenario="partition_minority",
        partition_duration=partition_duration,
    )


def partition_bridge(duration: float = 15.0) -> Dict[str, object]:
    """Split 5 ISS-PBFT nodes into two halves connected only through node 2,
    from 3 s to 9 s (400 req/s).

    Neither half alone has a strong quorum, so ordering stalls for the
    partition window (graceful degradation: no equivocation, no divergence,
    jittered timers); the bridge node keeps both sides' view-change timers
    and checkpoints partially informed.  After heal everything reconverges
    and every request completes through the retry loop.
    """
    specs = bridge_partition(5, 2, 3.0, 9.0)
    dep = deployment(
        PROTOCOL_PBFT, 5, specs, rate=400.0, duration=duration, drain_time=15.0,
        **GRACEFUL,
    )
    return dict(row(dep, dep.run()), scenario="partition_bridge", bridge=2)


def asymmetric_link(duration: float = 15.0) -> Dict[str, object]:
    """One-way link failure among 4 ISS-PBFT nodes from 3 s to 9 s: node 0
    cannot reach node 3 but node 3 still reaches node 0 — the
    asymmetric-connectivity case a symmetric partition cannot express.

    The cluster keeps a full quorum (only one direction of one link is
    down), so ordering continues; the scenario shows protocol-level
    redundancy (broadcasts, retransmissions, client retries) absorbing a
    degraded mesh without any reconvergence machinery.
    """
    specs = one_way_blocks([(0, 3)], 3.0, 9.0)
    dep = deployment(
        PROTOCOL_PBFT, 4, specs, rate=400.0, duration=duration, drain_time=15.0,
        **GRACEFUL,
    )
    return dict(row(dep, dep.run()), scenario="asymmetric_link", blocked_link=(0, 3))


def link_flap_sweep(duration: float = 12.0) -> List[Dict[str, object]]:
    """Throughput/latency of 4 ISS-PBFT nodes (400 req/s) as one link flaps
    faster and faster.

    Both directions of the (0, 3) link oscillate (up for half of each
    period); one row per period of :data:`FLAP_PERIODS`.  The flapping
    link rides a reliable transport (payloads dropped in a down-window are
    re-offered after 0.5 s), so flapping costs latency rather than
    correctness.  Without it a slow flap wedges the two endpoints: each
    misses the other's pre-prepares, neither can be rescued by a view
    change (a lone laggard never musters a view-change quorum), and with
    two of four nodes stuck in epoch 0 no checkpoint quorum ever forms —
    BFT message channels between correct nodes are assumed reliable.
    """
    rows: List[Dict[str, object]] = []
    for period in FLAP_PERIODS:
        specs = flapping_links(
            [(0, 3), (3, 0)], flap_period=period, flap_up=0.5, retransmit=0.5,
            seed=42,
        )
        dep = deployment(
            PROTOCOL_PBFT, 4, specs, rate=400.0, duration=duration, drain_time=15.0,
            **GRACEFUL,
        )
        rows.append(
            dict(
                row(dep, dep.run()),
                scenario="link_flap_sweep",
                flap_period=period,
                flap_up=0.5,
            )
        )
    return rows


def partition_heal_retry_storm(duration: float = 15.0) -> Dict[str, object]:
    """Aggressive client retries against a partition: does backoff keep the
    post-heal resubmission burst bounded?

    The :func:`partition_minority` split (one of 4 ISS-PBFT nodes cut off
    from 3 s to 9 s), with clients running a deliberately hot retry loop
    (0.5 s initial timeout).  Exponential backoff with a cap plus jitter
    keeps the total retry count bounded — each stuck request resends at
    most ``log2(cap/timeout)`` times before settling at the capped rate —
    and the nodes' idempotent bucket queues absorb the duplicates that race
    the heal.  The row reports the retry total and the duplicate count so
    regressions in either direction (retry storms, lost liveness) are
    visible.
    """
    specs = minority_partition(1, 4, 3.0, 9.0)
    dep = deployment(
        PROTOCOL_PBFT, 4, specs, rate=400.0, duration=duration, drain_time=15.0,
        **dict(GRACEFUL, client_retry_timeout=0.5),
    )
    result = dep.run()
    return dict(
        row(dep, result),
        scenario="partition_heal_retry_storm",
        retry_timeout=0.5,
        duplicates_absorbed=sum(
            sum(node.duplicate_requests.values()) for node in result.nodes
        ),
    )


# ---------------------------------------------------------------------------
# Dynamic membership — reconfiguration at epoch boundaries
# ---------------------------------------------------------------------------

#: Epoch length for the membership scenarios.  Reconfigurations activate at
#: epoch boundaries, so shorter epochs make joins/removals land (and the
#: scenarios finish) sooner without changing what is being proven.
DEFAULT_MEMBERSHIP_EPOCH_LENGTH = 16

#: Spacing between a rolling upgrade's remove and re-add (and between
#: per-node cycles).  Must exceed the epoch duration at the scenario's
#: request rate, or both ConfigTxs commit in one epoch and cancel out.
MEMBERSHIP_PERIOD = 6.0


def membership_join(
    protocol: str = PROTOCOL_PBFT,
    join_time: float = 3.0,
    duration: float = 20.0,
) -> Dict[str, object]:
    """Grow a 4-replica cluster (400 req/s) by one replica at ``join_time``.

    The add-ConfigTx is ordered like any client request and activates at
    the next epoch boundary; the new replica boots empty, state-transfers
    the committed prefix and joins ordering.  The row's ``all_joined`` /
    ``time_to_join_max`` are the figures of merit; the quorum sizes grow
    with the view (4 → 5) with no interruption to ordering.
    """
    specs = membership_additions(1, 4, start=join_time)
    dep = deployment(
        protocol, 4, specs, rate=400.0, duration=duration, drain_time=12.0,
        epoch_length=DEFAULT_MEMBERSHIP_EPOCH_LENGTH, **GRACEFUL,
    )
    return dict(row(dep, dep.run()), scenario="membership_join", joiners=1)


def rolling_upgrade(protocol: str = PROTOCOL_PBFT) -> Dict[str, object]:
    """Upgrade each of 4 replicas (300 req/s) in turn: remove it, then
    re-add it :data:`MEMBERSHIP_PERIOD` later — the paper's
    reconfiguration story applied n times.

    One node is out at a time, so the remaining replicas keep a strong
    quorum and ordering never stops; each re-added node recovers via
    snapshot + WAL replay + state transfer like a restarted replica.  The
    run's duration is derived from the schedule so the last re-add has an
    epoch boundary plus 6 s of catch-up time to land.  Row fields of merit:
    ``upgraded`` (how many replicas completed the remove+re-add cycle),
    ``all_complete`` and ``prefixes_identical`` (the acceptance gate),
    and ``final_view`` (back to the genesis set).
    """
    specs = rolling_upgrade_specs(4, start=3.0, period=MEMBERSHIP_PERIOD)
    duration = 3.0 + 2 * MEMBERSHIP_PERIOD * 4 + 6.0
    dep = deployment(
        protocol, 4, specs, rate=300.0, duration=duration, drain_time=15.0,
        epoch_length=DEFAULT_MEMBERSHIP_EPOCH_LENGTH, **GRACEFUL,
    )
    figures = row(dep, dep.run())
    figures["scenario"] = "rolling_upgrade"
    figures["period"] = MEMBERSHIP_PERIOD
    figures["upgraded"] = sum(
        1
        for j in figures["joins"]
        if j.get("rejoined") and j["time_to_join"] >= 0.0
    )
    figures["upgrade_complete"] = (
        figures["upgraded"] == 4 and sorted(figures["final_view"]) == [0, 1, 2, 3]
    )
    return figures


def byzantine_eviction(protocol: str = PROTOCOL_PBFT) -> Dict[str, object]:
    """Close the detection loop: a Byzantine replica is evicted *from
    membership*, not just blacklisted from the leaderset.

    The adversary (node 3 of 4, equivocating; 400 req/s for 25 s)
    misbehaves, its segment's view change fills the slots with ⊥ and
    records it in the shared failure history; the harness's eviction watch
    then submits a remove-ConfigTx, and the next epoch boundary activates
    a view without it.  The blacklist policy kept it out of the
    *leaderset* within epochs; the membership eviction removes it from
    quorums and checkpoints too.
    """
    adversary = 3
    byz = byzantine_leaders(1, 4, behaviour=BYZ_EQUIVOCATE)
    dep = deployment(
        protocol, 4, eviction_watch([adversary]) + byz, rate=400.0,
        duration=25.0, drain_time=12.0,
        epoch_length=DEFAULT_MEMBERSHIP_EPOCH_LENGTH, **GRACEFUL,
    )
    figures = row(dep, dep.run())
    figures["scenario"] = "byzantine_eviction"
    figures["adversary"] = adversary
    figures["evicted_from_membership"] = (
        adversary in figures["removed"] and adversary not in figures["final_view"]
    )
    figures["detection_time"] = max(
        (e["detected_at"] for e in figures["evictions"]), default=-1.0
    )
    return figures


def combined_adversary(protocol: str = PROTOCOL_PBFT) -> Dict[str, object]:
    """Abusive clients and a Byzantine replica in one run.

    The regression the membership battery pins: client-side defences
    (watermarks, duplicate absorption) and replica-side eviction must
    compose — the equivocating replica (node 3 of 4) ends up evicted from
    membership while every *correct* client's requests still complete,
    with one of 8 clients flooding duplicates (400 req/s for 25 s).
    """
    adversary = 3
    byz = byzantine_leaders(1, 4, behaviour=BYZ_EQUIVOCATE)
    client_specs = abusive_clients(1, 8, behaviour=CLIENT_DUPLICATE_FLOOD)
    dep = deployment(
        protocol, 4, eviction_watch([adversary]) + byz + client_specs,
        rate=400.0, duration=25.0, num_clients=8, drain_time=12.0,
        epoch_length=DEFAULT_MEMBERSHIP_EPOCH_LENGTH, **GRACEFUL,
    )
    figures = row(dep, dep.run())
    figures["scenario"] = "combined_adversary"
    figures["evicted_from_membership"] = (
        adversary in figures["removed"] and adversary not in figures["final_view"]
    )
    return figures
