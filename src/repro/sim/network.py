"""Simulated message-passing network with bandwidth and latency modelling.

The network reproduces the resource that drives the paper's scalability
result: every node owns a network interface with finite bandwidth
(1 Gbps in the paper's testbed) on which outgoing messages are *serialised*.
A single leader that must push a batch to ``n-1`` followers therefore pays
``(n-1) * batch_bytes / bandwidth`` of NIC time per decision, which is what
caps single-leader throughput at roughly ``1/n``.  ISS spreads proposals over
many leaders, so the aggregate NIC capacity grows with ``n``.

Messages are delivered point-to-point with a WAN propagation latency drawn
from :class:`repro.sim.latency.LatencyModel` plus optional jitter, and can be
dropped by crash faults, partitions and link faults — the only ways a
simulated message is lost.

The per-link send routine is the single hottest path in large simulations
(one run per message copy), so it is deliberately slim: ``multicast`` sizes
a message and decides its batchability once for all destinations (``send``
is its one-destination case), the wire-size accessor is resolved once per
message *type*, crash/partition/link-fault checks cost one truthiness test
each when no fault is configured, and delivery is scheduled through the
simulator's allocation-free callback path.

When ``NetworkConfig.batch_flush_interval`` is positive, small batchable
messages (protocol votes, client requests and acknowledgements — see
:mod:`repro.runtime.wire`) are additionally coalesced per (src, dst, flush
tick) into single wire frames before paying any of those costs; receivers
still see each payload individually.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.config import NetworkConfig
from ..core.types import NodeId
from ..runtime.faults import LinkFaultSpec
from ..runtime.wire import (
    MessageBatcher,
    MessageBatchMsg,
    is_batchable,
    wire_size,
)
from .chaos import (
    DROP_CRASH,
    DROP_LINK_FAULT,
    DROP_NO_HANDLER,
    DROP_PARTITION,
    ActiveLinkFault,
)
from .latency import LatencyModel
from .simulator import Simulator

#: A message handler registered by an endpoint: ``handler(src, message)``.
MessageHandler = Callable[[NodeId, object], None]

#: Fixed per-message processing overhead at the receiver (seconds), added
#: to every remote delivery.
PROCESSING_DELAY = 0.00002

#: Per-node adversarial send hook (see :mod:`repro.sim.adversary`):
#: ``fn(dst, message)`` returns the messages actually put on the wire
#: towards ``dst`` — transformed, duplicated, or none at all.
AdversarialSendHook = Callable[[NodeId, object], Iterable[object]]

@dataclass
class NetworkStats:
    """Aggregate traffic statistics, useful for complexity assertions in tests."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    #: Wire batches among ``messages_sent`` and logical payloads inside them
    #: (see :mod:`repro.runtime.wire`; both stay 0 with batching disabled).
    batches_sent: int = 0
    payloads_batched: int = 0
    per_node_bytes_sent: Counter = field(default_factory=Counter)
    per_node_messages_sent: Counter = field(default_factory=Counter)
    #: ``messages_dropped`` broken down by cause (see
    #: :data:`repro.sim.chaos.DROP_CAUSES`: crash / partition / link-fault /
    #: no-handler), so scenarios can tell a partition drop from a lossy link
    #: from a crashed peer.
    dropped_by_cause: Counter = field(default_factory=Counter)
    #: Lossy-link retransmissions performed by the retransmit transport
    #: (total and per source node).  Unlike the per-fault counters on
    #: :class:`~repro.sim.chaos.ActiveLinkFault` these survive fault healing,
    #: so end-of-run reports can still attribute the traffic.
    retransmissions: int = 0
    retransmissions_by_node: Counter = field(default_factory=Counter)

    def record_send(self, src: NodeId, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        self.per_node_bytes_sent[src] += size
        self.per_node_messages_sent[src] += 1

    def record_drop(self, cause: str) -> None:
        self.messages_dropped += 1
        self.dropped_by_cause[cause] += 1


class Network:
    """Point-to-point authenticated-channel network simulation.

    Endpoints (nodes and clients) register a handler; ``send`` models NIC
    serialisation at the sender, propagation latency, jitter, and
    :data:`PROCESSING_DELAY` at the receiver before invoking the handler
    inside the discrete-event simulator.  A message is lost only to a crash,
    a partition or a link fault; each drop is counted by cause in
    :attr:`stats`.
    """

    def __init__(self, sim: Simulator, config: NetworkConfig, latency: LatencyModel):
        config.validate()
        self.sim = sim
        self.config = config
        self.latency = latency
        self._rng = random.Random(config.random_seed ^ 0x5EED)
        self._handlers: Dict[NodeId, MessageHandler] = {}
        #: Virtual time at which each endpoint's NIC becomes free again.
        self._nic_free_at: Dict[NodeId, float] = {}
        self._crashed: Set[NodeId] = set()
        #: Current partition: a node-to-group mapping; messages across groups drop.
        self._partition_group: Dict[NodeId, int] = {}
        #: Bridge endpoints of the current partition: connected to every group.
        self._partition_bridges: Set[NodeId] = set()
        #: Installed link faults per directed link (see :mod:`repro.sim.chaos`);
        #: empty in chaos-free runs, so the hot path pays one truthiness test.
        self._link_faults: Dict[Tuple[NodeId, NodeId], List[ActiveLinkFault]] = {}
        #: Adversarial send hooks by node (empty in non-Byzantine runs, so
        #: the hot path pays one truthiness test).
        self._adversaries: Dict[NodeId, AdversarialSendHook] = {}
        self.stats = NetworkStats()
        #: Observability hook (``repro.obs.RequestTracer``); installed by the
        #: harness only when tracing is enabled, ``None`` otherwise.  Only
        #: rare paths (drops, retransmits) consult it.
        self.tracer = None
        #: Wire batcher coalescing small batchable messages per (src, dst,
        #: flush tick); ``None`` when batching is disabled (the default).
        self.batcher: Optional[MessageBatcher] = None
        if config.batch_flush_interval > 0.0:
            self.batcher = MessageBatcher(
                sim=sim,
                flush_interval=config.batch_flush_interval,
                send_fn=self._send_now,
            )

    # ------------------------------------------------------------ membership
    def register(self, endpoint: NodeId, handler: MessageHandler) -> None:
        """Register an endpoint.  Re-registering replaces the handler."""
        self._handlers[endpoint] = handler
        self._nic_free_at.setdefault(endpoint, 0.0)

    def unregister(self, endpoint: NodeId) -> None:
        self._handlers.pop(endpoint, None)

    def endpoints(self) -> Iterable[NodeId]:
        return self._handlers.keys()

    # ---------------------------------------------------------------- faults
    def crash(self, node: NodeId) -> None:
        """Crash an endpoint: it stops sending and receiving permanently
        (until :meth:`recover`)."""
        self._crashed.add(node)

    def recover(self, node: NodeId) -> None:
        """Reconnect a crashed endpoint (the restart path).

        The replacement node re-registers its handler itself; this clears
        the crash flag and resets the endpoint's NIC — a rebooted machine
        comes back with an empty transmit queue, not the backlog its
        previous incarnation had accumulated.
        """
        self._crashed.discard(node)
        if self._nic_free_at.get(node, 0.0) > self.sim.now:
            self._nic_free_at[node] = self.sim.now

    def is_crashed(self, node: NodeId) -> bool:
        return node in self._crashed

    def partition(
        self,
        groups: Iterable[Iterable[NodeId]],
        bridges: Iterable[NodeId] = (),
    ) -> None:
        """Partition endpoints into isolated groups; inter-group traffic drops.

        Endpoints not mentioned in any group stay fully connected to each
        other and to the *first* group (group 0), mirroring the common
        "minority cut off" scenario.  ``bridges`` stay connected to *every*
        group (a router that still sees both sides); traffic to or from a
        bridge always passes.
        """
        self._partition_group = {}
        self._partition_bridges = set(bridges)
        for index, group in enumerate(groups):
            for node in group:
                self._partition_group[node] = index

    def heal_partition(self) -> None:
        """Drop the current partition.

        This is purely a connectivity change: nodes that fell behind while
        cut off catch up only through the protocol — each notices the heal
        when it hears a long-silent peer again (``ISSNode._on_peer_return``).
        """
        self._partition_group = {}
        self._partition_bridges = set()

    def install_link_fault(self, spec: LinkFaultSpec) -> ActiveLinkFault:
        """Install one directional link fault, active immediately.

        Scheduling (activation at ``spec.start_time``, removal at
        ``spec.end_time``) is the fault injector's job; installing directly
        means "active now".  Returns the runtime handle (counters + RNG) for
        :meth:`remove_link_fault` and reporting.
        """
        fault = ActiveLinkFault(spec)
        self._link_faults.setdefault((spec.src, spec.dst), []).append(fault)
        return fault

    def remove_link_fault(self, fault: ActiveLinkFault) -> None:
        """Remove an installed link fault (the link heals)."""
        key = (fault.spec.src, fault.spec.dst)
        faults = self._link_faults.get(key)
        if not faults:
            return
        if fault in faults:
            faults.remove(fault)
        if not faults:
            del self._link_faults[key]

    def set_adversary(self, node: NodeId, hook: AdversarialSendHook) -> None:
        """Install an adversarial send hook for ``node`` (Byzantine faults).

        Every message ``node`` sends to a *remote* endpoint is routed through
        ``hook(dst, message)`` first; whatever the hook returns goes on the
        wire instead.  Local short-circuits (a node's messages to itself)
        never touch the network, so the adversary cannot corrupt its own
        state by accident — exactly the power a malicious replica has.
        """
        self._adversaries[node] = hook

    def _blocked_by_partition(self, src: NodeId, dst: NodeId) -> bool:
        if not self._partition_group:
            return False
        bridges = self._partition_bridges
        if bridges and (src in bridges or dst in bridges):
            return False
        group_src = self._partition_group.get(src, 0)
        group_dst = self._partition_group.get(dst, 0)
        return group_src != group_dst

    # ------------------------------------------------------------------ send
    def send(
        self,
        src: NodeId,
        dst: NodeId,
        message: object,
        size_bytes: Optional[int] = None,
    ) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        The call returns immediately; delivery (if any) happens later in
        virtual time.  Sends from or to crashed endpoints, across partitions,
        or over a blocked, flapping or lossy link (see
        :class:`~repro.runtime.faults.LinkFaultSpec`) are silently discarded
        — exactly what an unreliable asynchronous network does.

        When ``src`` has an adversarial send hook installed (Byzantine
        faults, see :meth:`set_adversary`), the hook rewrites the message
        first; each of its outputs then pays the full normal path (batching,
        faults, NIC, latency) like any honestly sent message.

        With wire batching enabled, batchable messages (see
        :mod:`repro.runtime.wire`) detour through the batcher and hit the
        wire as part of a coalesced frame at the link's next flush tick;
        fault checks, NIC serialisation and latency then apply to the frame.

        This is the one-destination case of :meth:`multicast`: the message
        is measured here, then handed to the same per-link routine.
        """
        size = wire_size(message) if size_bytes is None else size_bytes
        self._link_routine(src)(src, dst, message, size, self._batchable(message))

    def multicast(self, src: NodeId, dsts: Iterable[NodeId], message: object) -> None:
        """Send the same message to every destination (each pays NIC time).

        Wire size and batchability are properties of the message, so they
        are computed once per call; everything that depends on the link —
        adversary hook, link faults, partition, batching buffer, NIC and
        latency — runs per destination, in ``dsts`` order, through
        the routine :meth:`send` uses.  ``src`` among ``dsts`` is the
        sender's own copy (see :meth:`repro.runtime.api.Transport.
        multicast`): it is handed to ``src``'s handler at the current
        virtual time and never touches NIC, faults or the adversary hook —
        a malicious replica cannot corrupt its own state by accident.
        """
        size = wire_size(message)
        batchable = self._batchable(message)
        link = self._link_routine(src)
        for dst in dsts:
            if dst == src:
                self._deliver_own_copy(src, message)
            else:
                link(src, dst, message, size, batchable)

    def _deliver_own_copy(self, src: NodeId, message: object) -> None:
        """Local short-circuit for the sender's own copy of a multicast."""
        handler = self._handlers.get(src)
        if handler is not None:
            self.sim.schedule_callback(0.0, lambda: handler(src, message))

    def _batchable(self, message: object) -> bool:
        """Whether ``message`` takes the batching detour on this network."""
        return self.batcher is not None and is_batchable(message)

    def _link_routine(self, src: NodeId) -> Callable[..., None]:
        """The per-link routine for sends from ``src``.

        Every copy of a message runs the same chain — adversary hook, link
        faults, forwarding (partition, crash) — entered at the first stage
        that is active for this sender, so a fault-free run pays for none of
        the others.
        Signature of each stage: ``(src, dst, message, size, batchable)``.
        """
        if self._adversaries and src in self._adversaries:
            return self._via_adversary
        if self._link_faults:
            return self._via_link_faults
        return self._forward

    def _via_adversary(
        self, src: NodeId, dst: NodeId, message: object, size: int, batchable: bool
    ) -> None:
        """Adversary stage: the hook's outputs go on the wire instead."""
        for out in self._adversaries[src](dst, message):
            if out is message:
                self._via_link_faults(src, dst, out, size, batchable)
            else:
                # Tampered messages are re-measured, not charged the
                # original's size or batchability.
                self._via_link_faults(
                    src, dst, out, wire_size(out), self._batchable(out)
                )

    def _via_link_faults(
        self, src: NodeId, dst: NodeId, message: object, size: int, batchable: bool
    ) -> None:
        """Link-fault stage (post-adversary), then forwarding.

        Link-fault drop and duplication decisions run here — per payload,
        before the batching detour — so a lossy or flapping link acts on
        individual messages and can never be hidden (or amplified wholesale)
        by a coalesced wire frame.  Extra copies re-enter the forward path
        like honestly sent duplicates.
        """
        if self._link_faults and src != dst:
            faults = self._link_faults.get((src, dst))
            if faults:
                now = self.sim.now
                for fault in faults:
                    if fault.drops(now):
                        self.stats.record_drop(DROP_LINK_FAULT)
                        if self.tracer is not None:
                            self._trace_drop(DROP_LINK_FAULT, src, dst, message)
                        retry = fault.spec.retransmit
                        if retry > 0:
                            # Reliable-transport model (TCP under packet
                            # loss): the payload is lost on the wire but the
                            # sender's transport re-offers it after the
                            # retransmission timeout, re-subjected to the
                            # link's chaos (so repeated loss keeps backing
                            # it up until the link lets it through).
                            fault.payloads_retransmitted += 1
                            self.stats.retransmissions += 1
                            self.stats.retransmissions_by_node[src] += 1
                            if self.tracer is not None:
                                request = getattr(message, "request", None)
                                self.tracer.on_retransmit(
                                    now, src, dst,
                                    None if request is None else request.rid,
                                )
                            self.sim.schedule_callback(
                                retry,
                                lambda: self._via_link_faults(
                                    src, dst, message, size, batchable
                                ),
                            )
                        return
                for fault in faults:
                    if fault.duplicates():
                        self._forward(src, dst, message, size, batchable)
        self._forward(src, dst, message, size, batchable)

    def _forward(
        self, src: NodeId, dst: NodeId, message: object, size: int, batchable: bool
    ) -> None:
        """Fault-cleared stage: batching detour or immediate send."""
        if batchable and src != dst:
            # A partition block is a per-*message* contract, so it runs
            # here — on the payload, before it can hide inside a coalesced
            # frame.
            if self._partition_group and self._blocked_by_partition(src, dst):
                self.stats.record_drop(DROP_PARTITION)
                if self.tracer is not None:
                    self._trace_drop(DROP_PARTITION, src, dst, message)
                return
            self.batcher.enqueue(src, dst, message, size)
            return
        self._send_now(src, dst, message, size)

    def _send_now(self, src: NodeId, dst: NodeId, message: object, size: int) -> None:
        """Immediate (unbatched) send path; also the batcher's flush target."""
        if message.__class__ is MessageBatchMsg:
            self.stats.batches_sent += 1
            self.stats.payloads_batched += len(message.payloads)
        stats = self.stats
        stats.record_send(src, size)

        # Fault checks, each reduced to one truthiness test when inactive.
        if self._crashed and (src in self._crashed or dst in self._crashed):
            stats.record_drop(DROP_CRASH)
            if self.tracer is not None:
                self._trace_drop(DROP_CRASH, src, dst, message)
            return
        # Frames re-check the partition at flush time: payloads enqueued
        # before the split are still in the sender's buffer, and the wire
        # transmission itself is what the partition blocks.
        if self._partition_group and self._blocked_by_partition(src, dst):
            stats.record_drop(DROP_PARTITION)
            if self.tracer is not None:
                self._trace_drop(DROP_PARTITION, src, dst, message)
            return

        # NIC serialisation at the sender: back-to-back messages queue up.
        now = self.sim.now
        transmission = (size * 8) / self.config.bandwidth_bps
        nic_free = self._nic_free_at.get(src, 0.0)
        if nic_free < now:
            nic_free = now
        departure = nic_free + transmission
        self._nic_free_at[src] = departure

        if src == dst:
            arrival = departure
        else:
            propagation = self.latency.sample_latency(src, dst, self._rng)
            arrival = departure + propagation + PROCESSING_DELAY
            if self._link_faults:
                # Degraded-link extra delay applies per wire message (frames
                # included): a slow link delays whole transmissions, which is
                # what reorders them against other traffic.
                faults = self._link_faults.get((src, dst))
                if faults:
                    for fault in faults:
                        arrival += fault.extra_delay()

        # Allocation-free delivery scheduling (no Timer handle needed).
        delay = arrival - now
        if delay < 0.0:
            delay = 0.0
        self.sim.schedule_callback(
            delay, lambda: self._deliver(src, dst, message)
        )

    def _deliver(self, src: NodeId, dst: NodeId, message: object) -> None:
        if self._crashed and (dst in self._crashed or src in self._crashed):
            self.stats.record_drop(DROP_CRASH)
            if self.tracer is not None:
                self._trace_drop(DROP_CRASH, src, dst, message)
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.stats.record_drop(DROP_NO_HANDLER)
            if self.tracer is not None:
                self._trace_drop(DROP_NO_HANDLER, src, dst, message)
            return
        if message.__class__ is MessageBatchMsg:
            # Unpack the wire frame: every coalesced payload reaches the
            # handler individually and in send order, so receivers never see
            # the batching layer.
            for payload in message.payloads:
                self.stats.messages_delivered += 1
                handler(src, payload)
            return
        self.stats.messages_delivered += 1
        handler(src, message)

    # ------------------------------------------------------------- utilities
    def _trace_drop(self, cause: str, src: NodeId, dst: NodeId, message: object) -> None:
        """Rare-path tracer notification for a dropped message.

        Attributes the drop to the carried request when the message is a
        client request; callers guard on ``self.tracer is not None`` so the
        drop-free hot path never reaches this method.
        """
        request = getattr(message, "request", None)
        self.tracer.on_drop(
            self.sim.now, src, dst, cause, None if request is None else request.rid
        )

    def nic_backlog(self, node: NodeId) -> float:
        """Seconds of queued transmission time remaining on a node's NIC."""
        return max(0.0, self._nic_free_at.get(node, 0.0) - self.sim.now)
