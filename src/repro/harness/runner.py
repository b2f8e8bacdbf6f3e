"""Experiment harness: build and run one complete simulated deployment.

A :class:`Deployment` wires together everything one experiment needs —
simulator, WAN network, key store, ISS (or baseline) nodes, clients, the
open-loop workload generator, fault injection and metrics — runs it for the
configured virtual duration, and returns a :class:`~repro.metrics.RunReport`.
This is the programmatic equivalent of the paper's cloud-deployment tooling
(Section 4.4.3), minus the cloud bill.

A run's fault schedule is one value: ``faults`` is a single sequence
mixing every spec kind of :mod:`repro.runtime.faults`, validated once at
construction and armed on the :class:`~repro.sim.faults.FaultInjector` in
a fixed order (see ``_ARMED_BEFORE_CLIENTS``).

Crash recovery: when the faults hold a restart (or ``durable_storage=True``),
every node owns a :class:`~repro.storage.node_storage.NodeStorage` that
outlives it.  A scheduled :class:`~repro.runtime.faults.RestartSpec` tears the
crashed incarnation down and the deployment rebuilds the node from that
storage — WAL replay plus snapshot via
:class:`~repro.storage.recovery.RecoveryManager`, then state transfer for
everything ordered while the node was down.  A poll watcher (tick
``recovery_poll``) detects when the node is back at the cluster frontier and attaches one recovery record (downtime, WAL entries
replayed, state-transfer bytes, time-to-caught-up) to the run's report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..baselines.mirbft import MirBFTNode
from ..core.client import Client
from ..core.config import ISSConfig, NetworkConfig, SimConfig, WorkloadConfig
from ..core.iss import ISSNode
from ..core.leader_policy import LeaderSelectionPolicy
from ..core.membership import ACTION_REMOVE, ConfigTx, encode_config_tx
from ..core.segment import LAYOUT_ROUND_ROBIN
from ..core.validation import REJECTION_REASONS
from ..crypto.signatures import KeyStore
from ..core.state_transfer import DEFAULT_PROBE_STAGGER
from ..metrics.collector import MetricsCollector, RunReport
from ..obs.config import ObsConfig
from ..obs.export import write_run_artifacts
from ..obs.metrics import MetricsSampler
from ..obs.tracer import RequestTracer
from ..runtime.faults import (
    BYZ_CENSOR,
    MEMBER_ADD,
    MEMBER_EVICT_DETECTED,
    ByzantineSpec,
    CrashSpec,
    LinkFaultSpec,
    MaliciousClientSpec,
    MembershipSpec,
    PartitionSpec,
    RestartSpec,
    StragglerSpec,
)
from ..sim.chaos import DROP_CAUSES
from ..sim.client_adversary import AbusiveClient
from ..sim.faults import FaultInjector
from ..sim.latency import LatencyModel
from ..sim.network import Network
from ..sim.simulator import Simulator
from ..storage.node_storage import NodeStorage
from ..storage.recovery import boot_from_storage, watch_catchup
from ..workload.generator import WorkloadGenerator

#: Factory returning a fresh leader-selection policy for one node.
PolicyFactory = Callable[[ISSConfig], LeaderSelectionPolicy]

#: Default virtual-time tick of the post-restart catch-up watcher (seconds).
#: It quantises *when* a recovery is declared caught-up, not what the
#: protocol does.
DEFAULT_RECOVERY_POLL_INTERVAL = 0.25

#: The arming rule, whatever order ``faults`` lists its specs in.  Simulator
#: ties are broken by the sequence number an event draws when it is
#: scheduled, so arming order is part of every golden trace: ``faults`` is
#: stably partitioned by kind (list order survives within a kind); these
#: kinds are armed, in this order, before the clients are built, and every
#: :class:`MembershipSpec` — then the ``evict-detected`` polls — only after
#: the admin client and all endpoints exist (a spec at time 0 fires
#: immediately and needs them).
_ARMED_BEFORE_CLIENTS = (
    CrashSpec,
    RestartSpec,
    StragglerSpec,
    ByzantineSpec,
    MaliciousClientSpec,
    PartitionSpec,
    LinkFaultSpec,
)

#: Kinds whose spec *is* the target's behaviour: at most one per target.
_ONE_PER_TARGET = (StragglerSpec, ByzantineSpec, MaliciousClientSpec)


@dataclass
class DeploymentResult:
    """Report plus the raw objects, for tests that want to inspect internals."""

    report: RunReport
    nodes: List[ISSNode] = field(default_factory=list)
    clients: List[Client] = field(default_factory=list)
    network: Optional[Network] = None
    collector: Optional[MetricsCollector] = None
    #: Per-node durable storage (empty unless the deployment enables it).
    storages: Dict[int, NodeStorage] = field(default_factory=dict)


class Deployment:
    """One fully wired simulated ISS (or baseline) deployment."""

    def __init__(
        self,
        config: ISSConfig,
        network_config: Optional[NetworkConfig] = None,
        workload: Optional[WorkloadConfig] = None,
        faults: Sequence[object] = (),
        membership_enabled: Optional[bool] = None,
        durable_storage: Optional[bool] = None,
        recovery_poll: float = DEFAULT_RECOVERY_POLL_INTERVAL,
        probe_stagger: float = DEFAULT_PROBE_STAGGER,
        policy_factory: Optional[PolicyFactory] = None,
        node_class: Type[ISSNode] = ISSNode,
        layout: str = LAYOUT_ROUND_ROBIN,
        drain_time: float = 5.0,
        sim_config: Optional[SimConfig] = None,
        obs: Optional[ObsConfig] = None,
    ):
        self.config = config
        self.network_config = network_config or NetworkConfig()
        self.workload = workload or WorkloadConfig()
        #: The fault schedule, in the order it was given.
        self.faults = tuple(faults)
        # Membership machinery defaults on exactly when a reconfiguration is
        # scheduled, so static deployments keep their (golden-traced)
        # schedules bit-identical; tests that submit ConfigTxs by hand can
        # force it on without scheduling any spec.
        if membership_enabled is None:
            membership_enabled = bool(self.faults_of(MembershipSpec))
        self.membership_enabled = membership_enabled
        #: Node ids joining beyond the genesis set, in ascending order.
        self._joining_ids = sorted(
            {
                spec.node
                for spec in self.faults_of(MembershipSpec)
                if spec.action == MEMBER_ADD and spec.node >= config.num_nodes
            }
        )
        # The nodes list is indexed by node id everywhere, so brand-new ids
        # must extend it contiguously from the genesis count.
        expected = list(
            range(config.num_nodes, config.num_nodes + len(self._joining_ids))
        )
        if self._joining_ids != expected:
            raise ValueError(
                f"joining node ids must be contiguous from {config.num_nodes}, "
                f"got {self._joining_ids}"
            )
        #: The spec of every straggler, Byzantine node and malicious client,
        #: by ``(spec class, node or client id)``.
        self._behaviours = self._check_faults()
        self.policy_factory = policy_factory
        self.node_class = node_class
        self.layout = layout
        self.drain_time = drain_time
        # Restarts need durable state to recover from; storage defaults on
        # exactly when a restart is scheduled so crash-only and fault-free
        # deployments keep their persistence-free hot path (and their golden
        # traces) unchanged.
        if durable_storage is None:
            durable_storage = bool(self.faults_of(RestartSpec))
        self.durable_storage = durable_storage
        if recovery_poll <= 0:
            raise ValueError(f"recovery_poll must be positive, got {recovery_poll}")
        #: Tick of the catch-up / join / reconvergence / eviction watchers.
        self.recovery_poll = recovery_poll
        #: Open-ended state-transfer probe stagger handed to every node.
        self.probe_stagger = probe_stagger

        # ``sim_config`` is accepted and ignored: it exists solely for the
        # frozen benchmarks/e2e/sim_runner.py caller and goes at the next
        # benchmark re-anchor.
        self.latency = LatencyModel(self.network_config, config.num_nodes)
        # Joining replicas get their datacenter placement up front (same
        # deterministic rule as genesis nodes).
        if self._joining_ids:
            self.latency.register_extra_nodes(self._joining_ids)
        self.sim = Simulator(seed=config.random_seed)
        self.network = Network(self.sim, self.network_config, self.latency)
        self.key_store = KeyStore(deployment_seed=config.random_seed)
        self.injector = FaultInjector(self.sim, self.network)
        self.collector = MetricsCollector(
            completion_quorum=config.weak_quorum, warmup=self.workload.warmup
        )

        #: Observability: an explicit ObsConfig wins; otherwise the
        #: ``REPRO_TRACE*`` env vars (default: everything off).  The gate
        #: runner (:mod:`repro.gate.table`) pins ``ObsConfig.disabled()``.
        self.obs = obs if obs is not None else ObsConfig.from_env()
        self.tracer: Optional[RequestTracer] = None
        #: Delivery listener handed to every node.  Deliver *span* events are
        #: not recorded here but at the delivery-advance sites (one batched
        #: event per advance, see ``RequestTracer.on_deliver_batch``) — the
        #: per-item listener stays untouched whether tracing or not.
        self._on_deliver = self.collector.record_delivery
        if self.obs.trace:
            self.tracer = RequestTracer(sample=self.obs.sample)
            self.collector.tracer = self.tracer
            self.network.tracer = self.tracer
        self.sampler: Optional[MetricsSampler] = None
        if self.obs.metrics_interval > 0:
            self.sampler = MetricsSampler(
                self.sim, self.obs.metrics_interval, warmup=self.workload.warmup
            )
            self._register_probes(self.sampler)

        self.client_ids = list(range(self.workload.num_clients))
        #: Admin pseudo-client identity submitting ConfigTxs (the id just
        #: past the workload's clients); None in static deployments.  It is
        #: part of ``client_ids`` so every node's validator and watermark
        #: tracker knows it, but never part of the workload generator.
        self.admin_client_id: Optional[int] = None
        if self.membership_enabled:
            self.admin_client_id = self.workload.num_clients
            self.client_ids.append(self.admin_client_id)
        censored = sorted(
            {
                bucket
                for spec in self.faults_of(ByzantineSpec)
                if spec.behaviour == BYZ_CENSOR
                for bucket in spec.buckets
            }
        )
        if censored:
            self.collector.watch_buckets(censored, config.num_buckets)
        self.storages: Dict[int, NodeStorage] = {}
        if self.durable_storage:
            self.storages = {
                node_id: NodeStorage(node_id) for node_id in range(config.num_nodes)
            }
        #: Crash time per node (for the downtime figure of recovery records).
        self._crash_times: Dict[int, float] = {}
        #: Recovery records of restarted nodes still catching up.
        self._pending_recoveries: List[Dict[str, float]] = []

        # --- dynamic-membership runtime state (inert in static runs) ------
        self.admin_client: Optional[Client] = None
        #: Activation epochs already handled once deployment-wide (the
        #: listener fires per node; joins/removals are processed on the
        #: first firing only).
        self._activated_epochs: set = set()
        #: One record per view-changing activation (epoch, added, removed).
        self._membership_activations: List[Dict[str, object]] = []
        #: One record per booted joiner (time-to-join filled by the poll
        #: watcher; -1 when the run ends first).
        self._join_records: List[Dict[str, object]] = []
        #: Nodes removed from membership (activated, not merely scheduled).
        self._removed_nodes: set = set()
        #: One record per detection-driven eviction submitted.
        self._eviction_records: List[Dict[str, object]] = []
        self._evictions_submitted: set = set()

        self.nodes: List[ISSNode] = [
            self._build_node(node_id) for node_id in range(config.num_nodes)
        ]
        self.injector.on_crash = self._on_node_crash
        self.injector.on_restart = self._on_node_restart
        self.injector.on_partition_start = self._on_partition_start
        self.injector.on_partition_heal = self._on_partition_heal
        self.injector.on_membership_change = self._on_membership_change_spec
        for kind in _ARMED_BEFORE_CLIENTS:
            for spec in self.faults_of(kind):
                self.injector.schedule(spec)

        self.clients: List[Client] = []
        for client_id in range(self.workload.num_clients):
            common = dict(
                client_id=client_id,
                config=config,
                sim=self.sim,
                network=self.network,
                key_store=self.key_store,
                on_complete=self.collector.record_client_completion,
                tracer=self.tracer,
            )
            spec = self._behaviours.get((MaliciousClientSpec, client_id))
            if spec is not None:
                client = AbusiveClient(spec=spec, **common)
                self.injector.register_abusive_client(client)
            else:
                client = Client(**common)
            self.clients.append(client)
        endpoint_clients = list(self.clients)
        if self.membership_enabled:
            # The admin client rides the ordinary request path (signed,
            # bucketed, watermarked) but is driven by membership specs, not
            # the workload generator, and reports no completions.
            self.admin_client = Client(
                client_id=self.admin_client_id,
                config=config,
                sim=self.sim,
                network=self.network,
                key_store=self.key_store,
                tracer=self.tracer,
            )
            endpoint_clients.append(self.admin_client)
        self.latency.register_extra_endpoints([c.endpoint for c in endpoint_clients])
        memberships = self.faults_of(MembershipSpec)
        for spec in memberships:
            self.injector.schedule(spec)
        for spec in memberships:
            if spec.action != MEMBER_EVICT_DETECTED:
                continue
            if spec.time <= self.sim.now:
                self.sim.schedule(
                    self.recovery_poll, lambda s=spec: self._poll_eviction(s)
                )
            else:
                self.sim.schedule_at(spec.time, lambda s=spec: self._poll_eviction(s))

        self.generator = WorkloadGenerator(
            clients=self.clients,
            workload=self.workload,
            sim=self.sim,
            on_submit=lambda request, time: self.collector.record_submit(request.rid, time),
        )

    # ----------------------------------------------------------------- faults
    def faults_of(self, kind: type) -> List[object]:
        """The specs of class ``kind`` in ``faults``, in list order."""
        return [spec for spec in self.faults if type(spec) is kind]

    def _check_faults(self) -> Dict[Tuple[type, int], object]:
        """Validate every fault's target, before any event is scheduled.

        Node ids must lie in genesis ∪ joiners, client ids among the
        workload's clients, and a node or client carries at most one spec
        of a kind that *is* its behaviour (straggler, Byzantine, malicious
        client) — returned as a ``(kind, target) → spec`` table.  Any
        offence raises ``ValueError`` naming the spec; an object that is
        no fault spec at all raises ``TypeError``.
        """
        nodes = range(self.config.num_nodes + len(self._joining_ids))
        clients = range(self.workload.num_clients)
        behaviours: Dict[Tuple[type, int], object] = {}
        for spec in self.faults:
            kind = type(spec)
            if kind not in _ARMED_BEFORE_CLIENTS and kind is not MembershipSpec:
                raise TypeError(f"not a fault spec: {spec!r}")
            if kind in (PartitionSpec, LinkFaultSpec):
                continue  # endpoints, not node ids: clients may be named too
            if kind is MembershipSpec and spec.action == MEMBER_ADD:
                continue  # a joiner's id is checked for contiguity instead
            what, valid = "node", nodes
            if kind is MaliciousClientSpec:
                what, valid = "client", clients
            target = getattr(spec, what)
            if target not in valid:
                raise ValueError(
                    f"{spec!r}: {what} {target} is outside the deployment's "
                    f"{len(valid)} {what}s"
                )
            if kind in _ONE_PER_TARGET:
                if (kind, target) in behaviours:
                    raise ValueError(
                        f"{spec!r}: {what} {target} already has a "
                        f"{kind.__name__}; a process mounts exactly one behaviour"
                    )
                behaviours[kind, target] = spec
        return behaviours

    # ----------------------------------------------------------- node builds
    def _build_node(self, node_id: int) -> ISSNode:
        """Instantiate (or re-instantiate, after a restart) one node.

        The constructor registers the node's network handler, so building a
        replacement incarnation atomically takes over the endpoint from the
        crashed one.  The node's :class:`NodeStorage` — if the deployment has
        one — is shared across incarnations; everything else is fresh.
        """
        policy = self.policy_factory(self.config) if self.policy_factory else None
        node = self.node_class(
            node_id=node_id,
            config=self.config,
            sim=self.sim,
            network=self.network,
            key_store=self.key_store,
            client_ids=self.client_ids,
            on_deliver=self._on_deliver,
            fault_injector=self.injector,
            straggler=self._behaviours.get((StragglerSpec, node_id)),
            byzantine=self._behaviours.get((ByzantineSpec, node_id)),
            policy=policy,
            layout=self.layout,
            storage=self.storages.get(node_id),
            probe_stagger=self.probe_stagger,
            tracer=self.tracer,
            membership_enabled=self.membership_enabled,
        )
        if self.membership_enabled:
            node.membership_listener = self._on_membership_activation
        return node

    def _register_probes(self, sampler: MetricsSampler) -> None:
        """Install the standard per-node and cluster time-series probes.

        Probes close over ``self`` and look nodes up by index on every tick:
        node objects are *rebuilt* on restart, so capturing an incarnation
        would silently sample a dead object.  None of the probes mutate any
        state, which is what makes the sampler non-perturbing.
        """
        sampler.add_rate_probe("throughput", self.collector.completed_count)
        num_nodes = self.config.num_nodes
        for node_id in range(num_nodes):
            sampler.add_probe(
                f"node{node_id}.delivered",
                lambda n=node_id: self.nodes[n].delivered_count(),
            )
            sampler.add_probe(
                f"node{node_id}.pending",
                lambda n=node_id: self.nodes[n].pending_requests(),
            )
            sampler.add_probe(
                f"node{node_id}.instances",
                lambda n=node_id: len(self.nodes[n].orderer.active_instances()),
            )
        if self.durable_storage:
            for node_id in range(num_nodes):
                sampler.add_probe(
                    f"node{node_id}.wal",
                    lambda n=node_id: self.storages[n].wal.appended_total,
                )
        for cause in DROP_CAUSES:
            sampler.add_probe(
                f"drops.{cause}",
                lambda c=cause: self.network.stats.dropped_by_cause.get(c, 0),
            )
        sampler.add_probe(
            "retransmissions", lambda: self.network.stats.retransmissions
        )
        sampler.add_probe(
            "client_retries",
            lambda: sum(c.requests_retried for c in self.clients),
        )

    # ------------------------------------------------------- crash / restart
    def _on_node_crash(self, node_id: int) -> None:
        self._crash_times[node_id] = self.sim.now
        self.nodes[node_id].crash()

    def _on_node_restart(self, node_id: int) -> None:
        """Rebuild a crashed node from its durable storage.

        Recovery mirrors a production replica restart
        (:func:`~repro.storage.recovery.boot_from_storage`): replay the
        checkpoint-anchored snapshot and the WAL tail into a fresh node,
        boot it at the first epoch storage does not complete, then let the
        open-ended state-transfer probe fetch everything ordered while the
        node was down (all of it, after a diskless restart).  A watcher polls until
        the node is back at the cluster frontier and only then attaches the
        recovery record (so ``time_to_caught_up`` includes state transfer).
        """
        restarted_at = self.sim.now
        node = self._build_node(node_id)
        self.nodes[node_id] = node
        info = boot_from_storage(
            node, self.storages.get(node_id), now=restarted_at, tracer=self.tracer
        )

        record = info.as_dict()
        record["restarted_at"] = restarted_at
        record["downtime"] = restarted_at - self._crash_times.get(node_id, restarted_at)
        #: -1 means "still catching up"; overwritten by the watcher.
        record["time_to_caught_up"] = -1.0
        record["state_transfer_bytes"] = 0.0
        record["state_transfer_entries"] = 0.0
        self._pending_recoveries.append(record)

        def publish() -> None:
            self._pending_recoveries.remove(record)
            self.collector.record_recovery(record)

        self._watch_catchup(node, record, "time_to_caught_up", restarted_at, publish)

    def _is_current(self, node: ISSNode) -> bool:
        """Is ``node`` still the live incarnation of its id?"""
        return not node.crashed and self.nodes[node.node_id] is node

    def _watch_catchup(
        self,
        node: ISSNode,
        record: Dict[str, object],
        elapsed_key: str,
        since: float,
        then: Callable[[], None] = lambda: None,
    ) -> None:
        """Watch one booted incarnation until it reaches the frontier.

        The watch is bound to the exact incarnation it was started for: if
        that one crashed — even if a newer one already took its place
        within the same poll tick — the record keeps ``elapsed_key`` = -1;
        the newer incarnation's boot started its own watch.
        """

        def on_caught_up() -> None:
            record[elapsed_key] = self.sim.now - since
            record["state_transfer_bytes"] = float(node.state_transfer.bytes_received)
            record["state_transfer_entries"] = float(node.state_transfer.entries_applied)
            node.end_recovery_catchup()
            then()

        watch_catchup(
            self.sim,
            self.recovery_poll,
            still_current=lambda: self._is_current(node),
            caught_up=lambda: self._caught_up(node),
            on_caught_up=on_caught_up,
        )

    # -------------------------------------------------- partition lifecycle
    def _on_partition_start(self, spec: PartitionSpec, record: Dict[str, object]) -> None:
        """Snapshot the cluster-wide view-change count when the split lands.

        The heal hook turns this into ``view_changes_during`` — the figure
        that shows whether jittered/backed-off timers kept the minority side
        from storming view changes while it was cut off.
        """
        record["_view_changes_at_start"] = sum(
            node.view_changes for node in self.nodes if not node.crashed
        )

    def _on_partition_heal(self, spec: PartitionSpec, record: Dict[str, object]) -> None:
        """Reconverge the cluster after a heal, without an epoch-timer wait.

        Any live node that fell behind the frontier while cut off (typically
        the minority side) gets the restart path's aggressive catch-up: an
        open-ended ``LATEST_STABLE`` state-transfer probe plus transfer on
        current-epoch stable checkpoints.  A poll watcher then records
        ``time_to_reconverge`` the tick every laggard is back at the
        frontier (it stays -1 if the run ends first).
        """
        start = record.pop("_view_changes_at_start", 0)
        record["view_changes_during"] = (
            sum(node.view_changes for node in self.nodes if not node.crashed) - start
        )
        # Detect laggards against the *most advanced* live peer, not
        # _caught_up's slowest-peer bound: after a heal several nodes can be
        # behind at once (both partition sides stalled, or a lossy link
        # wedged a majority-side node) and mutually-lagging nodes would
        # mask each other under the min-frontier rule.
        laggards = [
            node
            for node in self.nodes
            if not node.crashed and self._behind_frontier(node)
        ]
        record["laggards"] = [node.node_id for node in laggards]
        if not laggards:
            record["time_to_reconverge"] = 0.0
            return
        record["time_to_reconverge"] = -1.0
        for node in laggards:
            node.begin_recovery_catchup()
            # Checkpoint-less epochs (no side kept a quorum) can only
            # complete through the protocol's own view/round machinery.
            node.nudge_stalled_instances()

        def on_caught_up() -> None:
            record["time_to_reconverge"] = self.sim.now - float(record["healed_at"])

        watch_catchup(
            self.sim,
            self.recovery_poll,
            still_current=lambda: True,  # laggards drop out one by one instead
            caught_up=lambda: self._laggards_caught_up(laggards),
            on_caught_up=on_caught_up,
        )

    def _laggards_caught_up(self, laggards: List[ISSNode]) -> bool:
        """One reconvergence tick: prune ``laggards`` to those still behind.

        Bound to the exact incarnations that were lagging at heal time: a
        laggard that crashes (or is replaced by a restart, which starts its
        own watch) is dropped from the wait — reconvergence is declared
        over the remaining live laggards.
        """
        waiting = list(laggards)
        laggards.clear()
        for node in waiting:
            if not self._is_current(node):
                continue
            # A fellow laggard must not serve as the frontier reference —
            # two equally-wedged nodes would declare each other caught up.
            others = [n for n in waiting if n is not node]
            if self._caught_up(node, exclude=others):
                node.end_recovery_catchup()
            else:
                laggards.append(node)
        return not laggards

    # ----------------------------------------------------- dynamic membership
    def _on_membership_change_spec(self, spec: MembershipSpec) -> None:
        """A scheduled add/remove fired: submit its ConfigTx.

        The ConfigTx rides the ordinary client path — signed by the admin
        client, validated and bucketed by the nodes, ordered in the log —
        and activates at the epoch boundary after the epoch that commits it.
        """
        self._submit_config_tx(ConfigTx(action=spec.action, node=spec.node))

    def _submit_config_tx(self, tx: ConfigTx) -> None:
        self.admin_client.submit(encode_config_tx(tx))

    def _on_membership_activation(
        self, node_id: int, epoch: int, view, added, removed
    ) -> None:
        """A node activated a committed membership change (node hook).

        Every node fires this as it seals the epoch; the deployment reacts
        once per activation epoch, on the first firing: boot joining
        replicas (they must be reachable before the activated nodes start
        broadcasting to the new view) and record removals.  Removed nodes
        quiesce themselves (:meth:`~repro.core.iss.ISSNode.retire`) when
        *they* reach the activation — their network endpoint stays
        registered so stragglers' messages are absorbed, not counted as
        drops.
        """
        if epoch in self._activated_epochs:
            return
        self._activated_epochs.add(epoch)
        self._membership_activations.append(
            {
                "epoch": int(epoch),
                "activated_at": self.sim.now,
                "added": [int(n) for n in added],
                "removed": [int(n) for n in removed],
                "view": [int(n) for n in view.nodes],
            }
        )
        for joiner in added:
            self._boot_joiner(joiner, epoch)
        for node in removed:
            self._removed_nodes.add(int(node))

    def _boot_joiner(self, node_id: int, epoch: int) -> None:
        """Bring a replica added at ``epoch`` into the running cluster.

        A brand-new id boots disklessly: fresh node, epoch 0, open-ended
        state-transfer catch-up (snapshot apply via the peers' stable
        checkpoints, then the log tail) — the restart path's machinery
        reused wholesale.  A re-added id (rolling upgrade) recovers from
        its durable storage first, exactly like a restart, so WAL replay
        reconstructs its membership views along with its log.
        """
        if self.durable_storage and node_id not in self.storages:
            self.storages[node_id] = NodeStorage(node_id)
        joined_at = self.sim.now
        rejoining = node_id < len(self.nodes)
        if rejoining:
            old = self.nodes[node_id]
            if not old.crashed:
                # Forcibly quiesce a lagging previous incarnation that has
                # not yet activated its own removal.
                old.retire()
        node = self._build_node(node_id)
        node.join_epoch = epoch
        if rejoining:
            self.nodes[node_id] = node
        else:
            self.nodes.append(node)
        boot_from_storage(
            node, self.storages.get(node_id), now=joined_at, tracer=self.tracer
        )
        peers = [n for n in self.nodes if n is not node and not n.crashed]
        record = {
            "node": int(node_id),
            "activation_epoch": int(epoch),
            "joined_at": joined_at,
            "rejoined": rejoining,
            #: Cluster frontier at boot — the log size the joiner must
            #: transfer (time-to-join vs log size is the bench figure).
            "log_size_at_join": float(
                max((p.log.first_undelivered for p in peers), default=0)
            ),
            "time_to_join": -1.0,
            "state_transfer_bytes": 0.0,
            "state_transfer_entries": 0.0,
        }
        self._join_records.append(record)
        self._watch_catchup(node, record, "time_to_join", joined_at)

    def _poll_eviction(self, spec: MembershipSpec) -> None:
        """Detection watch of an ``evict-detected`` spec.

        Polls until some correct node's failure history implicates the
        suspect (its segment failed an epoch — the observable footprint of
        equivocation, censorship, or invalid votes once a view change
        fills its slots with ⊥), then submits one remove ConfigTx.  This
        closes the detection loop: a Byzantine replica is evicted *from
        membership*, not just excluded from leader sets.
        """
        if spec.node in self._evictions_submitted:
            return
        if self._eviction_detected(spec.node):
            self._evictions_submitted.add(spec.node)
            self._eviction_records.append(
                {"node": int(spec.node), "detected_at": self.sim.now}
            )
            self._submit_config_tx(ConfigTx(action=ACTION_REMOVE, node=spec.node))
            return
        self.sim.schedule(self.recovery_poll, lambda: self._poll_eviction(spec))

    def _eviction_detected(self, target: int) -> bool:
        """Has any live correct node recorded ``target`` as a failed leader?"""
        return any(
            node.manager.history.last_failure(target) >= 0
            for node in self.nodes
            if node.node_id != target and not node.crashed
        )

    def _membership_stats(self) -> Optional[Dict[str, object]]:
        """Reconfiguration diagnostics for membership runs (else None).

        ``activations`` carries one record per view-changing epoch
        boundary, ``joins`` one per booted replica (time-to-join,
        state-transfer figures, log size at boot), ``removed`` the
        activated removals, ``evictions`` the detection-driven ones, and
        ``config_txs_committed``/``final_view`` come from a live node's
        membership tracker — the committed-log-derived ground truth.
        """
        if not self.membership_enabled:
            return None
        sample = next(
            (
                n
                for n in self.nodes
                if not n.crashed and getattr(n, "membership", None) is not None
            ),
            None,
        )
        if sample is None:
            sample = next(
                (n for n in self.nodes if getattr(n, "membership", None) is not None),
                None,
            )
        tracker = sample.membership if sample is not None else None
        return {
            "specs": [
                {"node": spec.node, "action": spec.action, "time": spec.time}
                for spec in self.faults_of(MembershipSpec)
            ],
            "activations": [dict(r) for r in self._membership_activations],
            "joins": [dict(r) for r in self._join_records],
            "removed": sorted(self._removed_nodes),
            "evictions": [dict(r) for r in self._eviction_records],
            "config_txs_committed": [
                {"epoch": int(e), "action": tx.action, "node": int(tx.node)}
                for e, tx in (tracker.committed_txs if tracker is not None else [])
            ],
            "final_view": (
                [int(n) for n in tracker.current_view().nodes]
                if tracker is not None
                else []
            ),
            "admin_submitted": (
                self.admin_client.requests_submitted
                if self.admin_client is not None
                else 0
            ),
        }

    def _behind_frontier(self, node: ISSNode) -> bool:
        """Is the node behind the *most advanced* live peer?

        The strict complement question to :meth:`_caught_up`: used at heal
        time, where comparing against the slowest peer would let several
        simultaneously-lagging nodes mask each other.
        """
        peers = [n for n in self.nodes if n is not node and not n.crashed]
        if not peers:
            return False
        max_epoch = max(peer.current_epoch for peer in peers)
        max_frontier = max(peer.log.first_undelivered for peer in peers)
        return (
            node.current_epoch < max_epoch
            or node.log.first_undelivered < max_frontier
        )

    def _caught_up(self, node: ISSNode, exclude: Sequence[ISSNode] = ()) -> bool:
        """Is the restarted node back at the frontier of the live cluster?

        Caught up means: at least the epoch of the most advanced live peer,
        and a delivered prefix no shorter than the slowest live peer's.  Both
        bounds compare against *live* peers only — a cluster where everyone
        else is down has no frontier to chase.  ``exclude`` removes nodes
        from the reference set (the reconvergence poll passes the other
        still-lagging nodes so they cannot serve as the frontier).
        """
        peers = [
            n
            for n in self.nodes
            if n is not node and not n.crashed and n not in exclude
        ]
        if not peers:
            return True
        max_epoch = max(peer.current_epoch for peer in peers)
        min_frontier = min(peer.log.first_undelivered for peer in peers)
        return (
            node.current_epoch >= max_epoch
            and node.log.first_undelivered >= min_frontier
        )

    # ------------------------------------------------------------------ run
    def run(self) -> DeploymentResult:
        """Run the experiment and return its report."""
        for node in self.nodes:
            node.start()
        self.generator.start()
        if self.sampler is not None:
            self.sampler.start()
        total_time = self.workload.duration + self.drain_time
        self.sim.run(until=total_time)
        # Restarted nodes that never reached the frontier keep their record,
        # flagged by time_to_caught_up = -1 (set at restart time).
        for record in self._pending_recoveries:
            self.collector.record_recovery(record)
        self._pending_recoveries = []
        report = self.collector.report(
            duration=self.workload.duration,
            extra=self._extra_stats(),
            byzantine=self._byzantine_stats(),
            client_abuse=self._client_abuse_stats(),
            partitions=self._partition_stats(),
            membership=self._membership_stats(),
        )
        if self.sampler is not None:
            report.throughput_timeline = self.sampler.throughput_timeline(
                limit=self.workload.duration
            )
            report.timeseries = self.sampler.timeseries()
        if self.obs.out_dir and (self.tracer is not None or self.sampler is not None):
            write_run_artifacts(
                self.obs.out_dir,
                self.tracer,
                timeseries=report.timeseries,
                counters=self.obs_counters(),
            )
        return DeploymentResult(
            report=report,
            nodes=self.nodes,
            clients=self.clients,
            network=self.network,
            collector=self.collector,
            storages=self.storages,
        )

    def _byzantine_stats(self) -> Optional[Dict[str, object]]:
        """Per-node misbehaviour counters for adversarial runs (else None).

        ``per_node`` carries, for every *current incarnation*, the number of
        equivocations it detected (provable conflicting proposals) and the
        forged signatures it rejected across all layers (client requests,
        checkpoint votes, protocol votes); ``adversaries`` names the
        scheduled Byzantine nodes and behaviours.
        """
        specs = self.faults_of(ByzantineSpec)
        if not specs:
            return None
        return {
            "per_node": {
                node.node_id: {
                    "equivocations_detected": node.equivocations_detected,
                    "invalid_sigs_rejected": node.invalid_signatures_rejected(),
                }
                for node in self.nodes
            },
            "adversaries": {spec.node: spec.behaviour for spec in specs},
        }

    def _client_abuse_stats(self) -> Optional[Dict[str, object]]:
        """Per-client abuse counters for runs with malicious clients (else
        None).

        ``per_client`` aggregates, across every *current node incarnation*,
        the rejections attributed to each claimed client identity (forged
        signatures count under the impersonated victim — the only identity a
        node can observe) plus the duplicate submissions absorbed for it;
        ``abusers`` carries each abusive client's own attack counters and
        ``adversaries`` maps client id → behaviour.
        """
        specs = self.faults_of(MaliciousClientSpec)
        if not specs:
            return None
        per_client: Dict[int, Dict[str, int]] = {}

        def entry_for(client: int) -> Dict[str, int]:
            entry = per_client.get(client)
            if entry is None:
                entry = per_client[client] = dict.fromkeys(
                    (*REJECTION_REASONS, "duplicates"), 0
                )
            return entry

        for node in self.nodes:
            for client, reasons in node.validator.stats.by_client.items():
                entry = entry_for(client)
                for reason, count in reasons.items():
                    entry[reason] += count
            for client, count in node.duplicate_requests.items():
                entry_for(client)["duplicates"] += count
        abusers = {}
        for spec in specs:
            client = self.injector.abusive_client_for(spec.client)
            if client is not None:
                abusers[spec.client] = client.abuse_stats()
        return {
            "adversaries": {spec.client: spec.behaviour for spec in specs},
            "per_client": per_client,
            "abusers": abusers,
        }

    def _partition_stats(self) -> Optional[Dict[str, object]]:
        """Network-chaos diagnostics for runs with partitions or link faults
        (else None).

        ``partitions`` carries one record per scheduled partition — the
        injector's schedule figures (groups, bridges, started_at, healed_at)
        plus the harness's reconvergence data (laggards,
        time_to_reconverge, view_changes_during; -1 means the run ended
        before the event).  ``drops_by_cause`` splits the network's payload
        drops by cause, ``link_faults`` lists per-installed-fault runtime
        counters and ``client_retries_total`` sums the clients' retry loops
        (0 with retries disabled).
        """
        if not (self.faults_of(PartitionSpec) or self.faults_of(LinkFaultSpec)):
            return None
        return {
            "partitions": [dict(record) for record in self.injector.partition_records()],
            "drops_by_cause": {
                cause: int(self.network.stats.dropped_by_cause.get(cause, 0))
                for cause in DROP_CAUSES
            },
            "link_faults": self.injector.link_fault_stats(),
            "client_retries_total": sum(c.requests_retried for c in self.clients),
            "retransmissions_total": int(self.network.stats.retransmissions),
        }

    def obs_counters(self) -> Dict[str, object]:
        """End-of-run counters bundled into the ``metrics.json`` artifact.

        One place to debug a chaos run from: drops split by cause,
        per-source-node retransmissions, and per-client retry counts.
        """
        stats = self.network.stats
        return {
            "drops_by_cause": {
                cause: int(stats.dropped_by_cause.get(cause, 0))
                for cause in DROP_CAUSES
            },
            "retransmissions_total": int(stats.retransmissions),
            "retransmissions_by_node": {
                int(node): int(count)
                for node, count in sorted(stats.retransmissions_by_node.items())
            },
            "client_retries_total": sum(c.requests_retried for c in self.clients),
            "client_retries_by_client": {
                c.client_id: c.requests_retried
                for c in self.clients
                if c.requests_retried
            },
        }

    def _extra_stats(self) -> Dict[str, float]:
        alive = [n for n in self.nodes if not n.crashed]
        sample = alive[0] if alive else self.nodes[0]
        stats = {
            "messages_sent": float(self.network.stats.messages_sent),
            "bytes_sent": float(self.network.stats.bytes_sent),
            "messages_dropped": float(self.network.stats.messages_dropped),
            # The opaque total above, split by cause (every key always
            # present so determinism checks compare identical dicts).
            **{
                f"dropped_{cause}": float(self.network.stats.dropped_by_cause.get(cause, 0))
                for cause in DROP_CAUSES
            },
            "epochs_completed": float(sample.epochs_completed),
            "batches_committed": float(sample.batches_committed),
            "nil_committed": float(sample.nil_committed),
            "requests_submitted": float(self.generator.submitted),
            "requests_deferred": float(self.generator.deferred),
            "sim_events": float(self.sim.events_executed),
        }
        if self.faults_of(RestartSpec):
            stats["restarts_performed"] = float(len(self.injector.restarted_nodes()))
        if self.faults_of(ByzantineSpec):
            stats["equivocations_detected_total"] = float(
                sum(n.equivocations_detected for n in self.nodes)
            )
            stats["invalid_sigs_rejected_total"] = float(
                sum(n.invalid_signatures_rejected() for n in self.nodes)
            )
        if self.faults_of(MaliciousClientSpec):
            stats["client_rejections_total"] = float(
                sum(n.validator.stats.rejected for n in self.nodes)
            )
            stats["client_duplicates_total"] = float(
                sum(sum(n.duplicate_requests.values()) for n in self.nodes)
            )
            stats["client_state_gc_entries_total"] = float(
                sum(n.client_state_gc_entries for n in self.nodes)
            )
        if self.config.client_retry_timeout > 0:
            stats["client_retries_total"] = float(
                sum(c.requests_retried for c in self.clients)
            )
        if self.membership_enabled:
            stats["membership_activations"] = float(len(self._membership_activations))
            stats["config_txs_submitted"] = float(
                self.admin_client.requests_submitted
                if self.admin_client is not None
                else 0
            )
            stats["nodes_retired"] = float(
                sum(1 for n in self.nodes if getattr(n, "retired", False))
            )
        if self.storages:
            stats["wal_appended_total"] = float(
                sum(s.wal.appended_total for s in self.storages.values())
            )
            stats["snapshots_installed_total"] = float(
                sum(s.snapshots.seals_total for s in self.storages.values())
            )
            stats["compactions_total"] = float(
                sum(s.compactions for s in self.storages.values())
            )
        return stats


def run_experiment(
    config: ISSConfig,
    workload: WorkloadConfig,
    network_config: Optional[NetworkConfig] = None,
    **kwargs,
) -> RunReport:
    """Convenience wrapper: build a deployment, run it, return the report."""
    deployment = Deployment(
        config=config, network_config=network_config, workload=workload, **kwargs
    )
    return deployment.run().report


def find_peak_throughput(
    make_report: Callable[[float], RunReport],
    offered_loads: Sequence[float],
) -> Dict[str, object]:
    """Sweep offered load and return the peak achieved throughput.

    Mirrors the paper's methodology: "we run experiments with increasing the
    client request submission rate until the throughput is saturated" and
    report the highest measured throughput before saturation.
    """
    best_throughput = 0.0
    best_load = 0.0
    points = []
    for load in offered_loads:
        report = make_report(load)
        points.append((load, report.throughput, report.latency.mean))
        if report.throughput > best_throughput:
            best_throughput = report.throughput
            best_load = load
    return {
        "peak_throughput": best_throughput,
        "at_offered_load": best_load,
        "points": points,
    }
