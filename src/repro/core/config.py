"""Configuration objects for ISS deployments.

The defaults follow Table 1 of the paper ("ISS configuration parameters used
in evaluation").  Durations are expressed in (virtual) seconds since the
whole system runs on the discrete-event simulator in :mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    #: Deterministic, seeded jitter on every view-change/round timer arming,
    #: as a fraction of the timeout: each armed timer fires after
    #: ``timeout * (1 + U[0, jitter))``.  Desynchronises simultaneous
    #: timeouts across nodes so a partition does not produce synchronized
    #: view-change storms.  ``0`` (the default) draws nothing and keeps
    #: every existing schedule bit-identical.
    view_change_jitter: float = 0.0
    #: Grace period (seconds) after which a node holding a *stable*
    #: checkpoint for its own current epoch with an incomplete local log
    #: requests state transfer.  Persistent message loss can leave a node
    #: with log holes it can never fill via SB (the epoch's instances are
    #: garbage collected at the peers once the checkpoint is stable); view
    #: changes cannot help either because the peers' instances are gone.
    #: ``0`` (the default) disables the check and schedules nothing —
    #: clean-path schedules stay bit-identical.
    stalled_catchup_grace: float = 0.0
    #: View-change recovery hardening (textbook-PBFT behaviours this
    #: simulation can skip while channels are reliable): include committed
    #: slots' prepared proofs in VIEW-CHANGE messages, re-announce decided
    #: values in NEW-VIEW, re-affirm commits so laggards can assemble a
    #: commit quorum, and reset the view/round-timeout backoff on progress.
    #: Required for reconvergence from partitions that leave *no* side with
    #: a quorum (nothing checkpoints, so state transfer has nothing to
    #: serve).  Off by default purely to keep pre-chaos golden schedules
    #: bit-identical; semantics without it are still safe, just slower to
    #: recover.
    vc_recovery: bool = False
    #: Raft election timeout range (min, max).
    election_timeout: tuple = (10.0, 20.0)

    # --- leader selection -------------------------------------------------
    leader_policy: str = POLICY_BLACKLIST
    #: BACKOFF policy: initial ban period (in epochs) and linear decrease.
    backoff_ban_period: int = 4
    backoff_decrease: int = 1

    # --- clients ----------------------------------------------------------
    client_watermark_window: int = 1024
    client_signatures: bool = True
    #: Simulated signature sizes (bytes); 64 matches 256-bit ECDSA.
    signature_size: int = 64
    #: Client retry/backoff (closing the loss-path liveness gap: before this,
    #: a request whose messages were all dropped waited for the next epoch's
    #: bucket reassignment — or forever).  ``client_retry_timeout`` is the
    #: per-request timeout before the first resubmission; ``0`` (the
    #: default) disables retries entirely and schedules nothing.
    client_retry_timeout: float = 0.0
    #: Multiplier applied to the retry timeout after every attempt
    #: (exponential backoff, >= 1).
    client_retry_backoff: float = 2.0
    #: Cap on the backed-off retry timeout (seconds).
    client_retry_max_timeout: float = 30.0
    #: Deterministic, seeded jitter on each retry delay, as a fraction:
    #: every delay is multiplied by ``1 + U[0, jitter)`` so a healed
    #: partition does not see all clients resubmit in the same instant.
    client_retry_jitter: float = 0.1
    #: Whether nodes send per-request responses back to clients.  The paper's
    #: clients wait for f+1 responses; large simulated sweeps disable the
    #: response messages and measure the same quantity centrally (the moment
    #: the (f+1)-th node delivers), which is equivalent and far cheaper.
    send_client_responses: bool = True

    # --- simulation / misc -------------------------------------------------
    random_seed: int = 42

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
        if not 0.0 <= self.view_change_jitter < 1.0:
            raise ConfigError("view_change_jitter must be in [0, 1)")
        if self.stalled_catchup_grace < 0:
            raise ConfigError("stalled_catchup_grace must be >= 0")
        if self.client_retry_timeout < 0:
            raise ConfigError("client_retry_timeout must be >= 0")
        if self.client_retry_backoff < 1.0:
            raise ConfigError("client_retry_backoff must be >= 1")
        if self.client_retry_max_timeout < self.client_retry_timeout:
            raise ConfigError(
                "client_retry_max_timeout must be >= client_retry_timeout"
            )
        if not 0.0 <= self.client_retry_jitter < 1.0:
            raise ConfigError("client_retry_jitter must be in [0, 1)")

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
    #: Probability of dropping any individual message (0 = reliable links).
    drop_rate: float = 0.0
    #: Fixed per-message processing overhead at the receiver (seconds).
    processing_delay: float = 0.00002
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
        if not 0 <= self.drop_rate < 1:
            raise ConfigError("drop_rate must be in [0, 1)")
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
