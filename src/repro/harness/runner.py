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
every node owns a :class:`~repro.storage.disk.SimDisk` that outlives it, and
each incarnation runs on a :class:`~repro.storage.node_storage.NodeStorage`
opened on that disk — the same file-backed WAL a live replica keeps in
its directory.  A crash keeps only what was synced.  A
scheduled :class:`~repro.runtime.faults.RestartSpec` tears the crashed
incarnation down, opens a fresh storage on the node's disk and rebuilds the
node from it — WAL replay via
:class:`~repro.storage.recovery.RecoveryManager`, then state transfer for
everything ordered while the node was down; the node leaves its catch-up
mode by itself.  A poll watcher (:func:`watch_catchup`, tick
:data:`RECOVERY_POLL`) only measures: it reads every node's state, which no
real replica can, to record when the node is back at the cluster frontier,
and attaches one recovery record (downtime, WAL entries replayed,
state-transfer bytes, time-to-caught-up) to the run's report.

``app`` (e.g. :class:`~repro.app.kv.KVApp`) builds each node incarnation's
application, as a live node process does (see :meth:`Deployment._build_node`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..core.client import Client
from ..core.config import ISSConfig, NetworkConfig, SimConfig, WorkloadConfig
from ..core.iss import ISSNode
from ..core.leader_policy import LeaderSelectionPolicy
from ..core.membership import ACTION_REMOVE, ConfigTx, encode_config_tx
from ..core.segment import LAYOUT_ROUND_ROBIN
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
from ..storage.disk import SimDisk
from ..storage.node_storage import NodeStorage
from ..storage.recovery import boot_from_storage
from ..workload.generator import WorkloadGenerator

#: Factory returning a fresh leader-selection policy for one node.
PolicyFactory = Callable[[ISSConfig], LeaderSelectionPolicy]

#: Virtual-time tick (seconds) of the catch-up, join, reconvergence and
#: eviction watchers.  It quantises *when* a recovery is declared caught-up,
#: not what the protocol does.
RECOVERY_POLL = 0.25

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


def watch_catchup(
    scheduler,
    interval: float,
    still_current: Callable[[], bool],
    caught_up: Callable[[], bool],
    on_caught_up: Callable[[], None],
) -> None:
    """Poll every ``interval`` until a booted node is back at the frontier.

    The one measuring watcher behind restarts, joins and post-heal
    reconvergence; it steers nothing (a node ends its own catch-up).  A
    watch is bound to the incarnation(s) it was started for: the tick that
    finds ``still_current()`` false gives up silently (whoever replaced the
    incarnation started a watch of its own, and the caller's record keeps
    its "never caught up" marker).  Otherwise the tick that finds
    ``caught_up()`` runs ``on_caught_up()`` — which fills the record — and
    any other tick re-arms.
    """

    def tick() -> None:
        if not still_current():
            return
        if caught_up():
            on_caught_up()
            return
        scheduler.schedule_callback(interval, tick)

    scheduler.schedule_callback(interval, tick)


@dataclass
class DeploymentResult:
    """Report plus the raw objects, for tests that want to inspect internals."""

    report: RunReport
    nodes: List[ISSNode] = field(default_factory=list)
    clients: List[Client] = field(default_factory=list)
    network: Optional[Network] = None
    collector: Optional[MetricsCollector] = None
    #: Each node's storage as its latest incarnation opened it (empty unless
    #: the deployment enables storage); ``.disk`` is the node's ``SimDisk``.
    storages: Dict[int, NodeStorage] = field(default_factory=dict)


class Deployment:
    """One fully wired simulated ISS (or baseline) deployment."""

    def __init__(
        self,
        config: ISSConfig,
        network_config: Optional[NetworkConfig] = None,
        workload: Optional[WorkloadConfig] = None,
        faults: Sequence[object] = (),
        durable_storage: Optional[bool] = None,
        recovery_poll: float = RECOVERY_POLL,
        probe_stagger: float = DEFAULT_PROBE_STAGGER,
        policy_factory: Optional[PolicyFactory] = None,
        node_class: Type[ISSNode] = ISSNode,
        layout: str = LAYOUT_ROUND_ROBIN,
        drain_time: float = 5.0,
        sim_config: Optional[SimConfig] = None,
        obs: Optional[ObsConfig] = None,
        app: Optional[Callable[[], object]] = None,
    ):
        self.config = config
        self.network_config = network_config or NetworkConfig()
        self.workload = workload or WorkloadConfig()
        #: The fault schedule, in the order it was given.
        self.faults = tuple(faults)
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
        # ``recovery_poll`` has one legal value, :data:`RECOVERY_POLL`; like
        # ``sim_config`` it stays accepted for the frozen
        # benchmarks/e2e/sim_runner.py caller until the next benchmark
        # re-anchor.
        if recovery_poll != RECOVERY_POLL:
            raise ValueError(
                f"recovery_poll is fixed at {RECOVERY_POLL}, got {recovery_poll}"
            )
        self.recovery_poll = RECOVERY_POLL
        #: Open-ended state-transfer probe stagger handed to every node.
        self.probe_stagger = probe_stagger
        #: Zero-argument factory of one node's application; ``None`` runs none.
        self.app = app
        #: Each node's current incarnation's application (empty without one).
        self.apps: Dict[int, object] = {}

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
        #: past the workload's clients), the one identity whose ConfigTxs
        #: every node counts; None when no membership change is scheduled.
        #: It is part of ``client_ids`` so every node's validator and
        #: watermark tracker knows it, but never part of the workload
        #: generator.
        self.admin_client_id: Optional[int] = None
        if self.faults_of(MembershipSpec):
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
        #: The storage each node's current incarnation opened on its disk.
        self.storages: Dict[int, NodeStorage] = {}
        for node_id in range(config.num_nodes):
            self._reopen_storage(node_id)
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
        #: One record per view-changing activation (epoch, activated_at,
        #: added, removed, resulting view).
        self.activations: List[Dict[str, object]] = []
        #: One record per booted joiner (time-to-join filled by the poll
        #: watcher; -1 when the run ends first).
        self.joins: List[Dict[str, object]] = []
        #: Nodes removed from membership (activated, not merely scheduled).
        self.removed: set = set()
        #: One record per detection-driven eviction submitted.
        self.evictions: List[Dict[str, object]] = []
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
                on_submit=self.collector.record_submit,
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
        if self.admin_client_id is not None:
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
            clients=self.clients, workload=self.workload, sim=self.sim
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
        storage — is the one :meth:`_reopen_storage` opened for this
        incarnation; everything else is fresh.
        """
        policy = self.policy_factory(self.config) if self.policy_factory else None
        on_deliver = self.collector.record_delivery
        if self.app is not None:
            # A fresh application per incarnation, called after the
            # collector: a restarted one rebuilds its state by recovery
            # replay, as a live process does.
            app = self.apps[node_id] = self.app()
            record, apply = on_deliver, app.on_deliver

            def on_deliver(node_id, item):
                record(node_id, item)
                return apply(node_id, item)

        node = self.node_class(
            node_id=node_id,
            config=self.config,
            sim=self.sim,
            network=self.network,
            key_store=self.key_store,
            client_ids=self.client_ids,
            on_deliver=on_deliver,
            fault_injector=self.injector,
            straggler=self._behaviours.get((StragglerSpec, node_id)),
            byzantine=self._behaviours.get((ByzantineSpec, node_id)),
            policy=policy,
            layout=self.layout,
            storage=self.storages.get(node_id),
            probe_stagger=self.probe_stagger,
            tracer=self.tracer,
            admin_client=self.admin_client_id,
        )
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
        sampler.add_probe("client_retries", self._client_retries_total)

    # ------------------------------------------------------- crash / restart
    def _on_node_crash(self, node_id: int) -> None:
        self._crash_times[node_id] = self.sim.now
        self.nodes[node_id].crash()
        if node_id in self.storages:
            self.storages[node_id].disk.crash()

    def _reopen_storage(self, node_id: int) -> None:
        """Open the next incarnation's storage on the node's disk (a new id
        gets a blank disk), as a restarted process opens its directory."""
        if self.durable_storage:
            previous = self.storages.get(node_id)
            self.storages[node_id] = (
                NodeStorage(node_id, SimDisk()) if previous is None else previous.reopen()
            )

    def _on_node_restart(self, node_id: int) -> None:
        """Rebuild a crashed node from its durable storage.

        Recovery mirrors a production replica restart
        (:func:`~repro.storage.recovery.boot_from_storage`): replay the
        WAL and its checkpoint certificates into a fresh node,
        boot it at the first epoch storage does not complete, then let the
        open-ended state-transfer probe fetch everything ordered while the
        node was down (all of it, after a diskless restart).  A watcher polls
        until the node is back at the cluster frontier and only then attaches
        the recovery record (so ``time_to_caught_up`` includes state
        transfer); it measures and never steers the node.
        """
        restarted_at = self.sim.now
        self._reopen_storage(node_id)
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
        """Measure the cluster's reconvergence after a heal; steer nothing.

        Each replica notices the heal itself: a peer heard again after a
        view change timeout of silence starts its own catch-up (see
        :meth:`ISSNode._on_peer_return`).  This hook only reads node state,
        as :func:`watch_catchup` does: it records ``view_changes_during``,
        the ``laggards`` behind the frontier at heal time, and — through a
        poll watcher — ``time_to_reconverge``, the tick every laggard is
        back at the frontier (it stays -1 if the run ends first).
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
            if not self._caught_up(node, exclude=others):
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
        self.activations.append(
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
            self.removed.add(int(node))

    def _boot_joiner(self, node_id: int, epoch: int) -> None:
        """Bring a replica added at ``epoch`` into the running cluster.

        A brand-new id boots disklessly: fresh node, epoch 0, open-ended
        state-transfer catch-up (snapshot apply via the peers' stable
        checkpoints, then the log tail) — the restart path's machinery
        reused wholesale.  A re-added id (rolling upgrade) recovers from
        its durable storage first, exactly like a restart, so WAL replay
        reconstructs its membership views along with its log.
        """
        self._reopen_storage(node_id)
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
        self.joins.append(record)
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
            self.evictions.append(
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
        counters = self.obs_counters()
        stats = self.network.stats
        alive = [n for n in self.nodes if not n.crashed]
        sample = alive[0] if alive else self.nodes[0]
        extra = {
            "messages_sent": float(stats.messages_sent),
            "bytes_sent": float(stats.bytes_sent),
            "messages_dropped": float(stats.messages_dropped),
            # The opaque total above, split by cause (every key always
            # present so determinism checks compare identical dicts).
            **{
                f"dropped_{cause}": float(count)
                for cause, count in counters["drops_by_cause"].items()
            },
            "epochs_completed": float(sample.epochs_completed),
            "batches_committed": float(sample.batches_committed),
            "nil_committed": float(sample.nil_committed),
            "requests_submitted": float(self.generator.submitted),
            "requests_deferred": float(self.generator.deferred),
            "sim_events": float(self.sim.events_executed),
        }
        report = self.collector.report(duration=self.workload.duration, extra=extra)
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
                counters=counters,
            )
        return DeploymentResult(
            report=report,
            nodes=self.nodes,
            clients=self.clients,
            network=self.network,
            collector=self.collector,
            storages=self.storages,
        )

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
            "client_retries_total": self._client_retries_total(),
            "client_retries_by_client": {
                c.client_id: c.requests_retried
                for c in self.clients
                if c.requests_retried
            },
        }

    def _client_retries_total(self) -> int:
        return sum(c.requests_retried for c in self.clients)
