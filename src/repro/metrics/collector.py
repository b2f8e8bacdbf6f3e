"""Measurement of throughput and end-to-end latency.

The paper measures *throughput* as requests delivered per second and
*end-to-end latency* as the time from a client submitting a request until it
receives ``f+1`` responses (Section 6.1).  The collector supports both the
full client-response path and the cheaper centralised equivalent: a request
counts as completed the moment ``f+1`` distinct nodes have delivered it,
which is exactly when the client-side quorum of responses becomes possible
(minus one network hop that is identical for all configurations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.types import DeliveredRequest, NodeId, Request, RequestId


@dataclass
class LatencySummary:
    """Latency statistics in seconds."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    maximum: float = 0.0

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "LatencySummary":
        if not samples:
            return LatencySummary()
        ordered = sorted(samples)
        # Clamp the mean into [min, max]: float summation can drift a ULP
        # past the true bounds (e.g. five identical samples).
        mean = sum(ordered) / len(ordered)
        mean = max(ordered[0], min(mean, ordered[-1]))
        return LatencySummary(
            count=len(ordered),
            mean=mean,
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            p99=_percentile(ordered, 0.99),
            maximum=ordered[-1],
        )


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


@dataclass
class RunReport:
    """Everything a benchmark needs from one experiment run."""

    duration: float
    submitted: int
    completed: int
    throughput: float
    latency: LatencySummary
    #: Requests completed per one-second interval (Figure 9/10/12 style).
    #: Populated by the harness from the observability sampler when a run
    #: enables ``ObsConfig.metrics_interval``; empty otherwise.
    throughput_timeline: List[Tuple[float, float]] = field(default_factory=list)
    #: Free-form counters (view changes, epochs, traffic...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: One record per node restart: WAL entries replayed, state-transfer
    #: bytes, time-to-caught-up... (see ``Deployment._on_node_restart``).
    recoveries: List[Dict[str, float]] = field(default_factory=list)
    #: Byzantine-fault diagnostics, empty for non-adversarial runs:
    #: ``per_node`` maps node → {equivocations_detected,
    #: invalid_sigs_rejected}, ``adversaries`` maps node → behaviour, and
    #: ``censored`` summarises delivery of requests in censored buckets
    #: (buckets, submitted, completed, latency: LatencySummary).
    byzantine: Dict[str, object] = field(default_factory=dict)
    #: Malicious-client diagnostics, empty for runs without abusive clients:
    #: ``adversaries`` maps client → behaviour, ``per_client`` maps the
    #: *claimed* client identity → cross-node rejection/duplicate counters
    #: (bad_signature, outside_watermarks, unknown_client, duplicates), and
    #: ``abusers`` carries each abusive client's own attack counters (see
    #: :meth:`repro.sim.client_adversary.AbusiveClient.abuse_stats`).
    client_abuse: Dict[str, object] = field(default_factory=dict)
    #: Network-chaos diagnostics, empty for runs without partitions or link
    #: faults: ``partitions`` lists one record per scheduled partition
    #: (groups, bridges, started_at/healed_at, laggards,
    #: time_to_reconverge, view_changes_during), ``drops_by_cause`` maps
    #: drop cause → payload count, ``link_faults`` carries per-link runtime
    #: counters, ``client_retries_total`` sums the clients' retry loops.
    partitions: Dict[str, object] = field(default_factory=dict)
    #: Dynamic-membership diagnostics, empty for static-configuration runs:
    #: ``activations`` lists one record per view-changing epoch boundary
    #: (epoch, added, removed, resulting view), ``joins`` one record per
    #: booted replica (time_to_join, log_size_at_join, state-transfer
    #: figures), ``removed``/``evictions`` the activated and
    #: detection-driven removals, ``config_txs_committed`` the ordered
    #: ConfigTxs as derived from the committed log, and ``final_view`` the
    #: replica set after the last activation.
    membership: Dict[str, object] = field(default_factory=dict)
    #: Per-node/cluster time series sampled by ``repro.obs.MetricsSampler``
    #: (``{"interval", "warmup", "times", "series"}``); empty unless the
    #: run enabled the observability sampler.
    timeseries: Dict[str, object] = field(default_factory=dict)


class MetricsCollector:
    """Collects submissions and deliveries and turns them into a report."""

    def __init__(self, completion_quorum: int, warmup: float = 0.0):
        if completion_quorum < 1:
            raise ValueError("completion_quorum must be >= 1")
        self.completion_quorum = completion_quorum
        self.warmup = warmup
        self._submit_times: Dict[RequestId, float] = {}
        self._delivery_nodes: Dict[RequestId, set] = {}
        self._completion_times: Dict[RequestId, float] = {}
        self._latencies: List[float] = []
        self.deliveries_observed = 0
        #: Observability hook (``repro.obs.RequestTracer``); installed by the
        #: harness only when tracing is enabled, ``None`` otherwise.
        self.tracer = None
        self._recoveries: List[Dict[str, float]] = []
        #: Censored-bucket watch (Byzantine censorship scenarios); None off.
        self._censored_buckets: Optional[frozenset] = None
        self._num_buckets = 0
        self._censored_latencies: List[float] = []
        self._censored_submitted = 0

    # ------------------------------------------------------------ recording
    def watch_buckets(self, buckets, num_buckets: int) -> None:
        """Track delivery latency of requests mapping to ``buckets``.

        The harness arms this for censorship scenarios: the report then
        carries a separate latency summary for exactly the requests a
        Byzantine leader tries to suppress, which is how the benchmarks
        show censored buckets still completing (bucket rotation, Sec. 3.2).
        """
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self._censored_buckets = frozenset(buckets)
        self._num_buckets = num_buckets

    def _is_censored(self, rid: RequestId) -> bool:
        return rid._mix % self._num_buckets in self._censored_buckets

    def record_submit(self, rid: RequestId, time: float) -> None:
        if rid not in self._submit_times:
            self._submit_times[rid] = time
            if (
                self._censored_buckets is not None
                and time >= self.warmup
                and self._is_censored(rid)
            ):
                self._censored_submitted += 1

    def record_delivery(self, node_id: NodeId, delivered: DeliveredRequest) -> None:
        """Feed one node's SMR-DELIVER event (wired as the node's on_deliver).

        Called once per request per node, so the common path is kept to a few
        dictionary probes (no set allocation after the first observer).
        """
        self.deliveries_observed += 1
        rid = delivered.request.rid
        if rid in self._completion_times:
            return
        nodes = self._delivery_nodes.get(rid)
        if nodes is None:
            nodes = self._delivery_nodes[rid] = set()
        nodes.add(node_id)
        if len(nodes) >= self.completion_quorum:
            self._complete(rid, delivered.delivered_at)

    def record_recovery(self, record: Dict[str, float]) -> None:
        """Attach one node-restart recovery record to the run's report.

        Keys are defined by the harness (``restarted_at``, ``downtime``,
        ``time_to_caught_up``, ``wal_entries_replayed``,
        ``state_transfer_bytes``, ...); the collector stores them verbatim
        so scenarios can add protocol-specific figures without touching
        this module.
        """
        self._recoveries.append(dict(record))

    def record_client_completion(
        self, client_id: int, request: Request, submitted_at: float, completed_at: float
    ) -> None:
        """Alternative completion source: the client collected f+1 responses."""
        self._submit_times.setdefault(request.rid, submitted_at)
        self._complete(request.rid, completed_at)

    def _complete(self, rid: RequestId, time: float) -> None:
        if rid in self._completion_times:
            return
        self._completion_times[rid] = time
        if self.tracer is not None:
            self.tracer.on_complete(time, rid)
        submit = self._submit_times.get(rid)
        if submit is None or submit < self.warmup:
            return
        self._latencies.append(time - submit)
        if self._censored_buckets is not None and self._is_censored(rid):
            self._censored_latencies.append(time - submit)

    # ------------------------------------------------------------ reporting
    def completed_count(self) -> int:
        return len(self._latencies)

    def submitted_count(self) -> int:
        return sum(1 for t in self._submit_times.values() if t >= self.warmup)

    def report(
        self,
        duration: float,
        extra: Optional[Dict[str, float]] = None,
        byzantine: Optional[Dict[str, object]] = None,
        client_abuse: Optional[Dict[str, object]] = None,
        partitions: Optional[Dict[str, object]] = None,
        membership: Optional[Dict[str, object]] = None,
    ) -> RunReport:
        """Summarise the run; ``byzantine`` carries the harness's per-node
        misbehaviour counters and is merged with the collector's own
        censored-bucket figures, ``client_abuse`` the per-client abuse
        counters of runs with malicious clients, ``partitions`` the
        network-chaos diagnostics of runs with partitions or link faults,
        ``membership`` the reconfiguration diagnostics of runs with
        dynamic membership."""
        measured = max(1e-9, duration - self.warmup)
        completed = len(self._latencies)
        byz: Dict[str, object] = dict(byzantine or {})
        if self._censored_buckets is not None:
            byz["censored"] = {
                "buckets": sorted(self._censored_buckets),
                "submitted": self._censored_submitted,
                "completed": len(self._censored_latencies),
                "latency": LatencySummary.from_samples(self._censored_latencies),
            }
        return RunReport(
            duration=duration,
            submitted=self.submitted_count(),
            completed=completed,
            throughput=completed / measured,
            latency=LatencySummary.from_samples(self._latencies),
            extra=dict(extra or {}),
            recoveries=[dict(r) for r in self._recoveries],
            byzantine=byz,
            client_abuse=dict(client_abuse or {}),
            partitions=dict(partitions or {}),
            membership=dict(membership or {}),
        )
