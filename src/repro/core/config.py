"""Configuration objects for ISS deployments.

The defaults follow Table 1 of the paper ("ISS configuration parameters used
in evaluation").  Durations are expressed in (virtual) seconds since the
whole system runs on the discrete-event simulator in :mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional


#: Protocols supported as Sequenced Broadcast implementations.
PROTOCOL_PBFT = "pbft"
PROTOCOL_HOTSTUFF = "hotstuff"
PROTOCOL_RAFT = "raft"

SUPPORTED_PROTOCOLS = (PROTOCOL_PBFT, PROTOCOL_HOTSTUFF, PROTOCOL_RAFT)

#: Leader-selection policies (Algorithm 4).
POLICY_SIMPLE = "simple"
POLICY_BACKOFF = "backoff"
POLICY_BLACKLIST = "blacklist"

SUPPORTED_POLICIES = (POLICY_SIMPLE, POLICY_BACKOFF, POLICY_BLACKLIST)


class ConfigError(ValueError):
    """Raised when a configuration is internally inconsistent."""


# --- recovery hardening ------------------------------------------------------
# Always on, on every backend.  View changes carry committed slots' proofs,
# NEW-VIEW re-announces decided values and followers re-affirm them, and
# progress resets the view/round-timeout backoff: that is what lets a
# partition that leaves *no* side with a quorum reconverge after heal.

#: Seeded jitter on every view-change/round timer arming, as a fraction of
#: the timeout: a timer fires after ``timeout * (1 + U[0, jitter))``, so a
#: partition that stalls many instances at once does not set off
#: synchronised view-change storms.
VIEW_CHANGE_JITTER = 0.1
#: Grace period (seconds) after which a node holding a *stable* checkpoint
#: for its own current epoch, with holes in its log, requests state
#: transfer.  Persistent message loss can leave holes SB can no longer fill:
#: the peers garbage-collect the epoch's instances once it is stable.
STALLED_CATCHUP_GRACE = 2.0
#: Multiplier applied to the client retry timeout after every attempt.
CLIENT_RETRY_BACKOFF = 2.0
#: Seeded jitter on each client retry delay, as a fraction: every delay is
#: multiplied by ``1 + U[0, jitter)`` so a healed partition does not see
#: every client resubmit in the same instant.
CLIENT_RETRY_JITTER = 0.1

#: The vestigial :class:`ISSConfig` fields and their single legal values.
_VESTIGIAL = dict(
    view_change_jitter=VIEW_CHANGE_JITTER,
    stalled_catchup_grace=STALLED_CATCHUP_GRACE,
    vc_recovery=True,
    client_retry_backoff=CLIENT_RETRY_BACKOFF,
    client_retry_jitter=CLIENT_RETRY_JITTER,
)


@dataclass
class ISSConfig:
    """Parameters of a single ISS deployment.

    Attributes mirror the parameter block of Algorithm 1 plus the
    evaluation parameters from Table 1.
    """

    # --- membership -----------------------------------------------------
    num_nodes: int = 4
    #: The ordering protocol used to implement Sequenced Broadcast.
    protocol: str = PROTOCOL_PBFT
    #: ``True`` for BFT protocols (n >= 3f+1), ``False`` for CFT (n >= 2f+1).
    byzantine: bool = True

    # --- log partitioning ------------------------------------------------
    #: Sequence numbers per epoch ("Min epoch length" in Table 1; scaled
    #: down by default so simulations stay short).
    epoch_length: int = 32
    #: Minimum sequence numbers per segment.  Segments shorter than this
    #: force a smaller leaderset (Table 1: 2 for PBFT, 16 for HotStuff/Raft).
    min_segment_size: int = 1
    #: Buckets per leader (Table 1: 16).
    buckets_per_leader: int = 16

    # --- batching --------------------------------------------------------
    max_batch_size: int = 2048
    #: Batches per second per deployment (Table 1: 32 b/s for PBFT/Raft).
    #: ``None`` disables rate limiting (HotStuff).
    batch_rate: Optional[float] = 32.0
    min_batch_timeout: float = 0.0
    max_batch_timeout: float = 4.0

    # --- timeouts --------------------------------------------------------
    epoch_change_timeout: float = 10.0
    #: PBFT/HotStuff view-change (pacemaker) timeout for a single instance.
    view_change_timeout: float = 10.0
    #: Raft election timeout range (min, max).
    election_timeout: tuple = (10.0, 20.0)

    # --- leader selection -------------------------------------------------
    leader_policy: str = POLICY_BLACKLIST

    # --- clients ----------------------------------------------------------
    client_watermark_window: int = 1024
    client_signatures: bool = True
    #: Per-request client timeout before the first resubmission (seconds);
    #: later timeouts back off by :data:`CLIENT_RETRY_BACKOFF` up to
    #: ``client_retry_max_timeout``.  ``0`` (the default) disables retries
    #: and schedules nothing.
    client_retry_timeout: float = 0.0
    #: Cap on the backed-off retry timeout (seconds).
    client_retry_max_timeout: float = 30.0
    #: Whether nodes send per-request responses back to clients (the paper's
    #: clients wait for f+1 of them; client retries and a live client's
    #: acknowledgement need them).  It does not change what the simulator
    #: measures: a simulated request completes, and its latency is taken,
    #: at the (f+1)-th node's *delivery* (see :mod:`repro.metrics.collector`),
    #: which happens before any reply leaves the node, so simulated latency
    #: leaves out the reply leg with responses on or off.  Large sweeps turn
    #: them off to save the messages.
    send_client_responses: bool = True

    # --- simulation / misc -------------------------------------------------
    random_seed: int = 42

    # --- vestigial ----------------------------------------------------------
    #: Vestigial, single legal value.  Recovery hardening is protocol
    #: behaviour, not an option (see the constants above); these five names
    #: stay accepted only because the frozen ``benchmarks/e2e/workloads.py``
    #: passes them.  Any other value raises :class:`ConfigError`.  Delete
    #: them at the next benchmark re-anchor, like :class:`SimConfig`.
    view_change_jitter: float = VIEW_CHANGE_JITTER
    stalled_catchup_grace: float = STALLED_CATCHUP_GRACE
    vc_recovery: bool = True
    client_retry_backoff: float = CLIENT_RETRY_BACKOFF
    client_retry_jitter: float = CLIENT_RETRY_JITTER

    def __post_init__(self) -> None:
        self.validate()

    # -- derived quantities ------------------------------------------------
    @property
    def max_faulty(self) -> int:
        """Maximum number of tolerated faults f for the configured model."""
        if self.byzantine:
            return (self.num_nodes - 1) // 3
        return (self.num_nodes - 1) // 2

    @property
    def strong_quorum(self) -> int:
        """Quorum size guaranteeing intersection in correct nodes (2f+1 / f+1)."""
        if self.byzantine:
            return 2 * self.max_faulty + 1
        return self.max_faulty + 1

    @property
    def weak_quorum(self) -> int:
        """Smallest set guaranteed to contain one correct node (f+1)."""
        return self.max_faulty + 1

    @property
    def num_buckets(self) -> int:
        """Total number of buckets |B| = buckets_per_leader * n."""
        return self.buckets_per_leader * self.num_nodes

    def max_leaders(self) -> int:
        """Largest leaderset a single epoch can accommodate.

        Bounded by the number of nodes and by ``epoch_length /
        min_segment_size`` so that every segment gets at least
        ``min_segment_size`` sequence numbers.
        """
        by_segment = max(1, self.epoch_length // max(1, self.min_segment_size))
        return max(1, min(self.num_nodes, by_segment))

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if self.protocol not in SUPPORTED_PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.leader_policy not in SUPPORTED_POLICIES:
            raise ConfigError(f"unknown leader policy {self.leader_policy!r}")
        if self.epoch_length < 1:
            raise ConfigError("epoch_length must be >= 1")
        if self.min_segment_size < 1:
            raise ConfigError("min_segment_size must be >= 1")
        if self.buckets_per_leader < 1:
            raise ConfigError("buckets_per_leader must be >= 1")
        if self.max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if self.batch_rate is not None and self.batch_rate <= 0:
            raise ConfigError("batch_rate must be positive or None")
        if self.min_batch_timeout < 0 or self.max_batch_timeout < 0:
            raise ConfigError("batch timeouts must be non-negative")
        if self.protocol == PROTOCOL_RAFT and self.byzantine:
            raise ConfigError("Raft is a CFT protocol; set byzantine=False")
        if self.client_watermark_window < 1:
            raise ConfigError("client_watermark_window must be >= 1")
        if self.client_retry_timeout < 0:
            raise ConfigError("client_retry_timeout must be >= 0")
        if self.client_retry_max_timeout < self.client_retry_timeout:
            raise ConfigError(
                "client_retry_max_timeout must be >= client_retry_timeout"
            )
        for name, legal in _VESTIGIAL.items():
            if getattr(self, name) != legal:
                raise ConfigError(
                    f"{name} is fixed at {legal!r}: recovery hardening is "
                    f"protocol behaviour, not an option"
                )

    def with_updates(self, **kwargs) -> "ISSConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **kwargs)


def paper_config(protocol: str, num_nodes: int, **overrides) -> ISSConfig:
    """Build a configuration matching Table 1 for the given protocol.

    The epoch length in the paper is 256 batches; callers typically override
    it downwards for simulation speed.  Anything passed through ``overrides``
    wins over the Table 1 defaults.
    """
    table1: Dict[str, Dict[str, object]] = {
        PROTOCOL_PBFT: dict(
            max_batch_size=2048,
            batch_rate=32.0,
            min_batch_timeout=0.0,
            max_batch_timeout=4.0,
            epoch_length=256,
            min_segment_size=2,
            epoch_change_timeout=10.0,
            buckets_per_leader=16,
            client_signatures=True,
            byzantine=True,
        ),
        PROTOCOL_HOTSTUFF: dict(
            max_batch_size=4096,
            batch_rate=None,
            min_batch_timeout=1.0,
            max_batch_timeout=0.0,
            epoch_length=256,
            min_segment_size=16,
            epoch_change_timeout=10.0,
            buckets_per_leader=16,
            client_signatures=True,
            byzantine=True,
        ),
        PROTOCOL_RAFT: dict(
            max_batch_size=4096,
            batch_rate=32.0,
            min_batch_timeout=0.0,
            max_batch_timeout=4.0,
            epoch_length=256,
            min_segment_size=16,
            epoch_change_timeout=10.0,
            buckets_per_leader=16,
            client_signatures=False,
            byzantine=False,
        ),
    }
    if protocol not in table1:
        raise ConfigError(f"unknown protocol {protocol!r}")
    params: Dict[str, object] = dict(table1[protocol])
    params.update(overrides)
    return ISSConfig(num_nodes=num_nodes, protocol=protocol, **params)


@dataclass
class SimConfig:
    """Vestigial engine selector; ``"single"`` is the only legal value.

    Exists solely because the frozen ``benchmarks/e2e/sim_runner.py`` passes
    ``SimConfig(engine="single")`` to :class:`~repro.harness.runner.Deployment`;
    delete it at the next benchmark re-anchor.
    """

    engine: str = "single"

    def __post_init__(self) -> None:
        if self.engine != "single":
            raise ConfigError(
                f"unknown simulator engine {self.engine!r}: the sharded engine "
                f"was removed in PR 12, 'single' is the only engine"
            )


@dataclass
class NetworkConfig:
    """Parameters of the simulated WAN (Section 6.1 of the paper)."""

    #: Per-node NIC bandwidth in bits per second (paper: rate-limited 1 Gbps).
    bandwidth_bps: float = 1e9
    #: Number of geo-distributed datacenters nodes are spread across.
    num_datacenters: int = 16
    #: Base one-way latency within a datacenter (seconds).
    intra_dc_latency: float = 0.0005
    #: Mean one-way latency between distinct datacenters (seconds).
    inter_dc_latency: float = 0.08
    #: Jitter applied to every message delay, as a fraction of the latency.
    jitter: float = 0.05
    #: Width of the wire-batching flush tick (seconds).  When positive, small
    #: batchable messages (protocol votes, client requests/acknowledgements —
    #: see :mod:`repro.runtime.wire`) sent on the same (src, dst) link within
    #: one tick are coalesced into a single wire message flushed at the tick
    #: boundary.  ``0`` (the default) disables batching entirely.
    batch_flush_interval: float = 0.0
    #: Optional explicit one-way datacenter latency matrix (seconds),
    #: ``num_datacenters`` × ``num_datacenters``.  ``None`` (the default)
    #: keeps the synthetic ring-distance matrix; scenario builders like
    #: :func:`repro.harness.scenarios.wan_regions` install measured
    #: region-to-region latencies here.
    dc_latency_matrix: Optional[List[List[float]]] = None
    random_seed: int = 7

    def validate(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.num_datacenters < 1:
            raise ConfigError("num_datacenters must be >= 1")
        if self.batch_flush_interval < 0:
            raise ConfigError("batch_flush_interval must be >= 0")
        if self.dc_latency_matrix is not None:
            matrix = self.dc_latency_matrix
            if len(matrix) != self.num_datacenters or any(
                len(row) != self.num_datacenters for row in matrix
            ):
                raise ConfigError(
                    "dc_latency_matrix must be num_datacenters x num_datacenters"
                )


@dataclass
class WorkloadConfig:
    """Open-loop client workload (Section 6.1)."""

    num_clients: int = 16
    #: Aggregate request rate across all clients (requests / second).
    total_rate: float = 1000.0
    #: Request payload size in bytes (paper: 500, the avg. Bitcoin tx).
    payload_size: int = 500
    #: Total virtual duration of the experiment (seconds).
    duration: float = 30.0
    #: Ramp-up time excluded from measurements (seconds).
    warmup: float = 0.0
    random_seed: int = 11

    def validate(self) -> None:
        if self.num_clients < 1:
            raise ConfigError("num_clients must be >= 1")
        if self.total_rate <= 0:
            raise ConfigError("total_rate must be positive")
        if self.payload_size < 0:
            raise ConfigError("payload_size must be >= 0")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
