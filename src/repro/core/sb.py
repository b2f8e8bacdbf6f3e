"""The Sequenced Broadcast (SB) abstraction (Section 2.2).

An SB instance is parametrised by a designated sender σ (the segment
leader), an explicit set of sequence numbers S (the segment's positions) and
an explicit message set M (batches drawn from the segment's buckets).
Correct nodes deliver, for *every* sequence number in S, either a batch
sb-cast by σ or the special ``⊥`` value — the latter only after some correct
node suspected σ.  Each protocol's own view-change (PBFT), round-change
(HotStuff) or election (Raft) timeout plays that suspecting role.

This module defines the interface between ISS and its SB implementations
(PBFT, HotStuff, Raft):

* :class:`SBContext` — everything the host node provides to an instance
  (routing, timers, batch cutting, validation, delivery).
* :class:`SBInstance` — the behaviour every implementation must provide.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence, Tuple

from .config import ISSConfig
from .membership import MembershipView
from .types import Batch, EpochNr, LogEntry, NodeId, SegmentDescriptor, SeqNr
from ..runtime.api import Timer


#: Type of the instance identifier: ``(epoch, segment leader)``.
InstanceId = Tuple[EpochNr, NodeId]


class SBContext:
    """Host-node services handed to a Sequenced Broadcast instance.

    The context hides everything about the surrounding ISS node: message
    routing (protocol messages are wrapped with the instance id and sent over
    the simulated network), virtual-time timers, batch construction from the
    segment's bucket queues, proposal validation, and the SB-DELIVER path
    back into the log.

    ``send_fn(dst, message)`` reaches one peer, ``local_fn(message)`` this
    node itself, and ``multicast_fn(dsts, message)`` hands one message to
    the transport's multicast for all of ``dsts`` — this node included
    when it is among them (see :meth:`repro.runtime.api.Transport.
    multicast`).
    """

    def __init__(
        self,
        *,
        node_id: NodeId,
        config: ISSConfig,
        segment: SegmentDescriptor,
        membership: MembershipView,
        send_fn: Callable[[NodeId, object], None],
        local_fn: Callable[[object], None],
        multicast_fn: Callable[[Sequence[NodeId], object], None],
        schedule_fn: Callable[[float, Callable[[], None]], Timer],
        now_fn: Callable[[], float],
        cut_batch_fn: Callable[[SeqNr], Batch],
        validate_batch_fn: Callable[[Batch], bool],
        deliver_fn: Callable[[SeqNr, LogEntry], None],
        pending_fn: Callable[[], int],
        timeout_jitter_fn: Callable[[], float],
        proposal_interval: float = 0.0,
        may_propose_fn: Optional[Callable[[SeqNr], bool]] = None,
        proposal_delay: float = 0.0,
        force_empty_proposals: bool = False,
        key_store: Optional[object] = None,
        report_misbehaviour_fn: Optional[Callable[[str, NodeId], None]] = None,
        note_view_change_fn: Optional[Callable[[], None]] = None,
        tracer=None,
        decided_value_fn: Optional[Callable[[SeqNr], LogEntry]] = None,
    ):
        self.node_id = node_id
        self.config = config
        self.segment = segment
        #: Membership view of the instance's epoch (the genesis view in a
        #: static deployment): the nodes it talks to and its quorum sizes.
        self.membership = membership
        self.all_nodes: List[NodeId] = list(membership.nodes)
        # An instance's membership never changes (a reconfiguration takes
        # effect at an epoch boundary, and instances live inside one
        # epoch), so the sizes every vote is compared against are fixed
        # here instead of being re-derived per vote.
        self.num_nodes: int = membership.num_nodes
        self.max_faulty: int = membership.max_faulty
        self.strong_quorum: int = membership.strong_quorum
        self.weak_quorum: int = membership.weak_quorum
        self._send = send_fn
        self._local = local_fn
        self._multicast = multicast_fn
        self._schedule = schedule_fn
        self._now = now_fn
        self._cut_batch = cut_batch_fn
        self._validate_batch = validate_batch_fn
        self._deliver = deliver_fn
        #: Without a host log to read decided values back from (a unit
        #: test's bare context), the context remembers what it delivered.
        self._delivered: Optional[dict] = None
        if decided_value_fn is None:
            self._delivered = {}
            decided_value_fn = self._delivered.__getitem__
        self._decided_value = decided_value_fn
        self._pending = pending_fn
        #: Minimum spacing between this leader's proposals (rate limiting,
        #: Section 4.4.1 / the fixed batch rate of Table 1).  Zero disables.
        self.proposal_interval = proposal_interval
        self._may_propose = may_propose_fn
        #: Byzantine-straggler knobs (Section 6.4.2): extra delay before each
        #: proposal and stripping of requests from proposals.
        self.proposal_delay = proposal_delay
        self.force_empty_proposals = force_empty_proposals
        #: Deployment key store (used by HotStuff for threshold signatures and
        #: by any implementation that wants to sign protocol messages).
        self.key_store = key_store
        self._report_misbehaviour = report_misbehaviour_fn
        #: Deterministic per-instance jitter on armed view/round timeouts
        #: (see :data:`repro.core.config.VIEW_CHANGE_JITTER`).
        self._timeout_jitter = timeout_jitter_fn
        #: Host counter hook fired on every completed view/round change.
        self._note_view_change = note_view_change_fn
        #: Observability hook (``repro.obs.RequestTracer``); protocol
        #: implementations emit per-slot phase events through it when it is
        #: not ``None`` (see ``RequestTracer.on_sb``).
        self.tracer = tracer

    # ------------------------------------------------------------ identity
    @property
    def is_leader(self) -> bool:
        """True when this node is the segment's designated sender σ."""
        return self.segment.leader == self.node_id

    # ----------------------------------------------------------- messaging
    def send(self, dst: NodeId, message: object) -> None:
        """Send a protocol message to one peer (self-sends short-circuit)."""
        if dst == self.node_id:
            self._local(message)
        else:
            self._send(dst, message)

    def broadcast(self, message: object, include_self: bool = True) -> None:
        """Send a protocol message to every node (optionally including self).

        One multicast, whatever the node count: the host wraps the message
        once and the transport sizes it once.  This node's own copy keeps
        its place in the node order and costs no wire time.  Vote-sized
        messages may be coalesced with other traffic on each (sender,
        receiver) link by the network's wire-batching layer (see
        :mod:`repro.runtime.wire`); every recipient still handles the vote
        individually, so implementations need not care.
        """
        dsts = self.all_nodes
        if not include_self:
            dsts = [node for node in dsts if node != self.node_id]
        self._multicast(dsts, message)

    # -------------------------------------------------------------- timing
    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        return self._schedule(delay, callback)

    def now(self) -> float:
        return self._now()

    def timeout_jitter(self) -> float:
        """Multiplier (``>= 1``) for the next armed view/round timeout.

        The host supplies a deterministic per-instance sample in
        ``[1, 1 + VIEW_CHANGE_JITTER)``, which desynchronises simultaneous
        timeouts across nodes (no view-change storms when a partition
        stalls many instances at once).
        """
        return self._timeout_jitter()

    def note_view_change(self) -> None:
        """Count one completed view/round change at the host node (feeds the
        "view changes during partition" figure of ``scenarios.row``;
        the per-instance counters die with epoch garbage collection, this
        one survives)."""
        if self._note_view_change is not None:
            self._note_view_change()

    # ------------------------------------------------------------ batching
    def cut_batch(self, sn: SeqNr) -> Batch:
        """Cut a batch for ``sn`` from the segment's bucket queues.

        The host records the proposal (for resurrection on ``⊥``) and removes
        the requests from its queues; a straggler host returns empty batches.
        """
        return self._cut_batch(sn)

    def pending_requests(self) -> int:
        """Requests currently waiting in the segment's buckets."""
        return self._pending()

    def batch_ready(self) -> bool:
        """True when enough requests are pending to fill a batch."""
        return self._pending() >= self.config.max_batch_size

    def may_propose(self, sn: SeqNr) -> bool:
        """Crash-fault hook: False means the node just crashed (suppress send)."""
        if self._may_propose is None:
            return True
        return self._may_propose(sn)

    # ---------------------------------------------------------- validation
    def validate_batch(self, batch: Batch) -> bool:
        """Follower-side proposal check (Section 4.2, acceptance rule (a)-(c))."""
        return self._validate_batch(batch)

    # -------------------------------------------------------- misbehaviour
    def report_misbehaviour(self, kind: str, node: NodeId) -> None:
        """Report *provable* misbehaviour of ``node`` to the host.

        ``kind`` is ``"equivocation"`` (evidence that the designated sender
        issued conflicting proposals, e.g. f+1 prepare votes for a digest
        other than the locally accepted one) or ``"invalid-signature"`` (a
        vote whose signature failed verification).  The host only counts
        these in its diagnostics; leaderset eviction stays
        driven by the log-visible ``⊥`` entries so every correct node keeps
        computing identical leadersets (Section 3.4).
        """
        if self._report_misbehaviour is not None:
            self._report_misbehaviour(kind, node)

    # ------------------------------------------------------------ delivery
    def deliver(self, sn: SeqNr, value: LogEntry) -> None:
        """Trigger SB-DELIVER(sn, value) at the host node."""
        if self._delivered is not None:
            self._delivered[sn] = value
        self._deliver(sn, value)

    def decided_value(self, sn: SeqNr) -> LogEntry:
        """The value delivered for ``sn``, read back from the host's log.

        An instance need not keep a decided batch: the log holds it, or,
        once delivered on a node with storage, reads it back from disk.
        """
        return self._decided_value(sn)


class SBInstance(ABC):
    """Behaviour required from every Sequenced Broadcast implementation.

    Lifecycle: the host constructs the instance with its :class:`SBContext`,
    calls :meth:`start` (the SB-INIT event), routes incoming protocol
    messages to :meth:`handle_message`, and finally calls :meth:`stop` once
    the segment is covered by a stable checkpoint and can be garbage
    collected.  The instance must call ``context.deliver(sn, value)`` exactly
    once for every sequence number of its segment (SB Termination).
    """

    def __init__(self, context: SBContext):
        self.context = context

    @property
    def instance_id(self) -> InstanceId:
        return self.context.segment.instance_id

    @property
    def segment(self) -> SegmentDescriptor:
        return self.context.segment

    @abstractmethod
    def start(self) -> None:
        """SB-INIT: begin participating in the instance."""

    @abstractmethod
    def handle_message(self, src: NodeId, message: object) -> None:
        """Process one protocol message addressed to this instance."""

    @abstractmethod
    def stop(self) -> None:
        """Stop all activity (cancel timers); called at garbage collection."""

    def nudge(self) -> None:
        """Connectivity was restored: re-examine liveness *now* instead of
        waiting out timers that were exponentially backed off during the
        outage.

        The host calls it on its own instances only, when a peer returns
        after this node had lost a strong quorum (a healed partition; see
        ``StateTransfer.heard``), never on the clean path.  Default
        no-op, which HotStuff and Raft keep; PBFT overrides it to demand
        the next view at the base timeout.
        """
