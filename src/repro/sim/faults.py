"""Fault *injection* for the simulated network.

The fault specifications are pure data in :mod:`repro.runtime.faults`
(which also says what each kind means for the paper's evaluation); this
module turns them into virtual-time events.  What the injector does per
kind:

* :class:`CrashSpec` / :class:`RestartSpec` — crash the endpoint at the
  network layer; on restart reconnect it and delegate the rebuild to the
  harness through :attr:`FaultInjector.on_restart` (the deployment
  re-instantiates the node from its
  :class:`~repro.storage.node_storage.NodeStorage`, see
  :mod:`repro.storage.recovery`).
* :class:`ByzantineSpec` — behaviours that manipulate what *leaves* the
  node (equivocation, forged votes, replay flooding) become a per-node
  adversarial send hook on the :class:`Network` (built by
  :mod:`repro.sim.adversary`); behaviours that manipulate what the node
  *does* (bucket censorship) are honoured by the ISS node itself, exactly
  like :class:`StragglerSpec`.
* :class:`MaliciousClientSpec` — the harness builds an
  :class:`~repro.sim.client_adversary.AbusiveClient` for the spec'd client
  and registers it here, so ``start_time`` activation runs through the
  same scheduling path as the replica-side adversaries.
* :class:`PartitionSpec` / :class:`LinkFaultSpec` — split and heal the
  network, install and remove link degradations.  When a partition heals
  the injector fires :attr:`FaultInjector.on_partition_heal` — the harness
  measures reconvergence there; the replicas notice the heal themselves.
* :class:`MembershipSpec` — fire :attr:`FaultInjector.on_membership_change`
  when an add/remove falls due; the harness submits the ConfigTx.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.types import ClientId, EpochNr, NodeId
from ..runtime.faults import (
    CRASH_AT_TIME,
    CRASH_EPOCH_START,
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
from .chaos import ActiveLinkFault
from .network import Network
from .simulator import Simulator


class FaultInjector:
    """Arms fault specs on a running simulated deployment.

    :meth:`schedule` is the one entry point: it dispatches on the spec's
    class to the private arming routine of that kind.  Epoch-anchored
    crashes cannot be armed on a clock — the victim's ISS node reports
    when an epoch starts / when its last proposal is about to go out
    through :meth:`notify_epoch_start` and :meth:`notify_last_proposal`
    (the node receives the injector as its ``fault_injector``).
    """

    def __init__(self, sim: Simulator, network: Network):
        self.sim = sim
        self.network = network
        self._crashed: List[NodeId] = []
        #: ``(node, virtual time)`` of every restart performed so far.
        self._restarted: List[tuple] = []
        #: Installed adversarial senders by node (see :mod:`.adversary`).
        self._adversaries: Dict[NodeId, object] = {}
        #: Registered abusive clients by client id (see :mod:`.client_adversary`).
        self._abusive_clients: Dict[ClientId, object] = {}
        self._epoch_start_watch: Dict[NodeId, List[CrashSpec]] = {}
        self._epoch_end_watch: Dict[NodeId, List[CrashSpec]] = {}
        self._partition_specs: List[PartitionSpec] = []
        #: One record per scheduled partition (started_at/healed_at filled in
        #: as the schedule executes; the harness appends reconvergence data).
        self._partition_records: List[Dict[str, object]] = []
        #: Runtime handles of installed link faults, kept after removal so
        #: their drop/duplicate counters survive into the report.
        self._link_fault_runtimes: List[ActiveLinkFault] = []
        #: Called right after a node is crashed (e.g. to stop its timers).
        self.on_crash: Optional[Callable[[NodeId], None]] = None
        #: Called right after a node's endpoint is reconnected; the harness
        #: rebuilds the node from storage here (recovery manager + restart).
        self.on_restart: Optional[Callable[[NodeId], None]] = None
        #: Called right after a partition is applied: ``fn(spec, record)``.
        self.on_partition_start: Optional[
            Callable[[PartitionSpec, Dict[str, object]], None]
        ] = None
        #: Called right after a partition heals: ``fn(spec, record)``.  The
        #: harness records the laggards and their reconvergence time here.
        self.on_partition_heal: Optional[
            Callable[[PartitionSpec, Dict[str, object]], None]
        ] = None
        #: Called when a scheduled add/remove falls due: ``fn(spec)``.  The
        #: harness submits the ConfigTx through its admin client here (the
        #: injector owns timing, the harness owns client construction —
        #: the same split as for abusive clients).
        self.on_membership_change: Optional[Callable[[MembershipSpec], None]] = None

    # ------------------------------------------------------------- schedule
    def schedule(self, spec) -> None:
        """Arm one fault spec of any kind (the one arming entry point).

        Specs whose start time already passed take effect immediately;
        anything that is not one of the eight spec classes of
        :mod:`repro.runtime.faults` is a ``TypeError``.
        """
        arm = _ARMERS.get(spec.__class__)
        if arm is None:
            raise TypeError(f"not a fault spec: {spec!r}")
        arm(self, spec)

    def _arm_crash(self, spec: CrashSpec) -> None:
        if spec.trigger == CRASH_AT_TIME:
            self.sim.schedule_at(spec.time, lambda: self.crash_now(spec.node))
        elif spec.trigger == CRASH_EPOCH_START:
            self._epoch_start_watch.setdefault(spec.node, []).append(spec)
        else:
            self._epoch_end_watch.setdefault(spec.node, []).append(spec)

    def _arm_restart(self, spec: RestartSpec) -> None:
        self.sim.schedule_at(spec.time, lambda: self.restart_now(spec.node))

    def _arm_byzantine(self, spec: ByzantineSpec) -> None:
        """Send-manipulating behaviours install an adversarial hook on the
        network at ``spec.start_time``; node-level behaviours (censorship)
        are honoured by the node itself and need no network hook.  The hook
        survives crash/restart of the node — a restarted Byzantine node
        stays Byzantine."""
        from .adversary import make_adversary  # deferred: adversary imports protocol types

        adversary = make_adversary(spec)
        if adversary is None:
            return
        if spec.start_time <= self.sim.now:
            self._install_adversary(spec.node, adversary)
        else:
            self.sim.schedule_at(
                spec.start_time, lambda: self._install_adversary(spec.node, adversary)
            )

    def _install_adversary(self, node: NodeId, adversary) -> None:
        self._adversaries[node] = adversary
        self.network.set_adversary(node, adversary)

    def _arm_nothing(self, spec) -> None:
        """Specs honoured where the behaviour lives: a straggler by its ISS
        node, a malicious client by the ``AbusiveClient`` process the
        harness builds and hands to :meth:`register_abusive_client`."""

    def register_abusive_client(self, client) -> None:
        """Attach a built :class:`~repro.sim.client_adversary.AbusiveClient`
        and arm its activation at the spec's ``start_time`` (immediately when
        that time already passed)."""
        self._abusive_clients[client.client_id] = client
        start = client.spec.start_time
        if start <= self.sim.now:
            client.activate_abuse()
        else:
            self.sim.schedule_at(start, client.activate_abuse)

    def _arm_membership(self, spec: MembershipSpec) -> None:
        """``add``/``remove`` fire :attr:`on_membership_change` at the spec's
        time (immediately when that time already passed); the harness then
        submits the ConfigTx through its admin client.  ``evict-detected``
        arms nothing here — the harness polls the failure history itself."""
        if spec.action == MEMBER_EVICT_DETECTED:
            return

        def fire() -> None:
            if self.on_membership_change is not None:
                self.on_membership_change(spec)

        if spec.time <= self.sim.now:
            fire()
        else:
            self.sim.schedule_at(spec.time, fire)

    # ------------------------------------------------------- network chaos
    def _arm_partition(self, spec: PartitionSpec) -> None:
        """Split at ``start_time``, heal at ``heal_time``.

        The network supports one partition at a time, so overlapping specs
        are rejected here rather than silently replacing each other.
        """
        for other in self._partition_specs:
            if spec.start_time < other.heal_time and other.start_time < spec.heal_time:
                raise ValueError(
                    f"partition [{spec.start_time}, {spec.heal_time}) overlaps "
                    f"scheduled partition [{other.start_time}, {other.heal_time})"
                )
        self._partition_specs.append(spec)
        record: Dict[str, object] = {
            "groups": [list(group) for group in spec.groups],
            "bridges": list(spec.bridges),
            "scheduled_start": spec.start_time,
            "scheduled_heal": spec.heal_time,
            "started_at": -1.0,
            "healed_at": -1.0,
        }
        self._partition_records.append(record)
        self.sim.schedule_at(
            spec.start_time, lambda: self.partition_now(spec, record)
        )
        self.sim.schedule_at(
            spec.heal_time, lambda: self.heal_partition_now(spec, record)
        )

    def partition_now(self, spec: PartitionSpec, record: Dict[str, object]) -> None:
        """Apply a scheduled partition (the split side of the schedule)."""
        self.network.partition(spec.groups, bridges=spec.bridges)
        record["started_at"] = self.sim.now
        if self.on_partition_start is not None:
            self.on_partition_start(spec, record)

    def heal_partition_now(self, spec: PartitionSpec, record: Dict[str, object]) -> None:
        """Heal a scheduled partition and notify the harness.

        The notification is what makes healing more than a connectivity
        change: the harness's hook sends the ``LATEST_STABLE`` state-transfer
        probes for every node that fell behind, so reconvergence starts
        immediately instead of waiting for the next checkpoint broadcast or
        epoch timer.
        """
        self.network.heal_partition()
        record["healed_at"] = self.sim.now
        if self.on_partition_heal is not None:
            self.on_partition_heal(spec, record)

    def _arm_link_fault(self, spec: LinkFaultSpec) -> None:
        """Install at ``start_time``, remove at ``end_time`` (if finite)."""

        def install() -> None:
            fault = self.network.install_link_fault(spec)
            self._link_fault_runtimes.append(fault)
            if spec.end_time != float("inf"):
                self.sim.schedule_at(
                    spec.end_time, lambda: self.network.remove_link_fault(fault)
                )

        if spec.start_time <= self.sim.now:
            install()
        else:
            self.sim.schedule_at(spec.start_time, install)

    # ---------------------------------------------------------------- hooks
    def notify_epoch_start(self, node: NodeId, epoch: EpochNr) -> None:
        """Called by the ISS node when ``epoch`` starts locally."""
        for spec in self._epoch_start_watch.get(node, []):
            if spec.epoch == epoch and node not in self._crashed:
                self.crash_now(node)

    def notify_last_proposal(self, node: NodeId, epoch: EpochNr) -> bool:
        """Called by the ISS node right before sending its last proposal of
        ``epoch``.  Returns True when the node was crashed (the proposal
        must then be suppressed)."""
        for spec in self._epoch_end_watch.get(node, []):
            if spec.epoch == epoch and node not in self._crashed:
                self.crash_now(node)
                return True
        return False

    # ---------------------------------------------------------------- crash
    def crash_now(self, node: NodeId) -> None:
        if node in self._crashed:
            return
        self._crashed.append(node)
        self.network.crash(node)
        if self.on_crash is not None:
            self.on_crash(node)

    # -------------------------------------------------------------- restart
    def restart_now(self, node: NodeId) -> None:
        """Bring a crashed node back immediately.

        Reconnects the network endpoint (the crashed incarnation's timers
        were already cancelled by :meth:`crash_now` /
        ``ISSNode.crash``) and hands control to :attr:`on_restart`, which
        rebuilds the node from its durable storage.  Restarting a node
        that is not crashed is a no-op.
        """
        if node not in self._crashed:
            return
        self._crashed.remove(node)
        self.network.recover(node)
        self._restarted.append((node, self.sim.now))
        if self.on_restart is not None:
            self.on_restart(node)

    def crashed_nodes(self) -> Sequence[NodeId]:
        return tuple(self._crashed)

    def restarted_nodes(self) -> Sequence[tuple]:
        """``(node, time)`` pairs of every restart performed so far."""
        return tuple(self._restarted)

    def adversary_for(self, node: NodeId):
        """The installed adversarial sender of ``node`` (None before
        ``start_time`` and for node-level behaviours such as censorship)."""
        return self._adversaries.get(node)

    def abusive_client_for(self, client_id: ClientId):
        """The registered abusive client process for ``client_id`` (None for
        clients without a malicious spec)."""
        return self._abusive_clients.get(client_id)

    def partition_records(self) -> List[Dict[str, object]]:
        """One record per scheduled partition (shared dicts: the harness
        appends reconvergence figures to them as they become known)."""
        return self._partition_records

    def link_fault_stats(self) -> List[Dict[str, object]]:
        """Per-installed-link-fault drop/duplicate counters (stable order:
        installation order)."""
        return [fault.stats() for fault in self._link_fault_runtimes]


#: Arming routine by exact spec class: the dispatch table of
#: :meth:`FaultInjector.schedule`.
_ARMERS = {
    CrashSpec: FaultInjector._arm_crash,
    RestartSpec: FaultInjector._arm_restart,
    StragglerSpec: FaultInjector._arm_nothing,
    ByzantineSpec: FaultInjector._arm_byzantine,
    MaliciousClientSpec: FaultInjector._arm_nothing,
    PartitionSpec: FaultInjector._arm_partition,
    LinkFaultSpec: FaultInjector._arm_link_fault,
    MembershipSpec: FaultInjector._arm_membership,
}
