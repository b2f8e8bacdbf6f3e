"""The ISS node: multiplexing Sequenced Broadcast instances into one log.

This module ties together everything the paper's Algorithms 1–3 describe:

* request reception and validation into bucket queues,
* epoch initialisation (leaderset, segments, buckets, SB instances),
* proposal batching for segments this node leads (through
  :class:`~repro.core.sb.SBContext` / the proposal pacer),
* handling of SB-DELIVER events — committing batches to the log, removing
  delivered requests from bucket queues, resurrecting the node's own
  unsuccessful proposals on ``⊥``,
* contiguous delivery with per-request sequence numbers (Equation 2) and
  client responses,
* epoch transitions, checkpointing, garbage collection and state transfer,
* rejoining after a partition heals: a peer heard again after a view
  change timeout of silence starts this node's own catch-up (see
  :meth:`ISSNode._on_peer_return`),
* durable persistence: when the node owns a
  :class:`~repro.storage.node_storage.NodeStorage`, every commit, epoch
  start and stable checkpoint is recorded through a narrow persist hook so
  a crashed node can be rebuilt by
  :class:`~repro.storage.recovery.RecoveryManager` (WAL replay)
  and catch up on whatever it missed via state transfer.

Wire efficiency: client acknowledgements are aggregated per (client, commit
step) into :class:`~repro.core.messages.ClientResponseBatchMsg` here, and —
one layer below — the network coalesces protocol votes, checkpoint votes and
client requests per (sender, receiver, flush tick) into single wire frames
when :mod:`repro.runtime.wire` is enabled.  Neither changes what any node
delivers; both only reduce the number of messages on the simulated wire.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..crypto.signatures import KeyStore
from ..runtime.api import FaultNotifier, Scheduler, Transport
from ..runtime.faults import BYZ_CENSOR, ByzantineSpec, StragglerSpec

if TYPE_CHECKING:  # annotation-only: storage imports core, not vice versa
    from ..storage.node_storage import NodeStorage
from .buckets import BucketPool
from .checkpoint import CheckpointMsg, CheckpointProtocol
from .config import STALLED_CATCHUP_GRACE, VIEW_CHANGE_JITTER, ISSConfig
from .leader_policy import LeaderSelectionPolicy
from .log import Log
from .manager import EpochManager
from .membership import MembershipTracker
from .messages import (
    BucketAssignmentMsg,
    ClientRequestMsg,
    CLIENT_ENDPOINT_OFFSET,
    ClientResponseBatchMsg,
    InstanceMessage,
    client_endpoint,
)
from .orderer import Orderer, default_factory
from .sb import SBContext
from .segment import LAYOUT_ROUND_ROBIN
from .state_transfer import (
    DEFAULT_PROBE_STAGGER,
    StateRequest,
    StateResponse,
    StateTransfer,
)
from .types import (
    Batch,
    ClientId,
    DeliveredRequest,
    EpochNr,
    LogEntry,
    NodeId,
    Request,
    SegmentDescriptor,
    SeqNr,
    is_nil,
)
from .validation import ClientWatermarks, RequestValidator

#: Callback invoked for every request delivered at a node.  A message it
#: returns is the application's reply, sent to the request's client.
DeliveryListener = Callable[[NodeId, DeliveredRequest], Optional[object]]


class ISSNode:
    """One replica of the ISS state-machine-replication service."""

    def __init__(
        self,
        node_id: NodeId,
        config: ISSConfig,
        sim: Scheduler,
        network: Transport,
        key_store: KeyStore,
        client_ids: Iterable[int] = (),
        on_deliver: Optional[DeliveryListener] = None,
        fault_injector: Optional[FaultNotifier] = None,
        straggler: Optional[StragglerSpec] = None,
        byzantine: Optional[ByzantineSpec] = None,
        policy: Optional[LeaderSelectionPolicy] = None,
        layout: str = LAYOUT_ROUND_ROBIN,
        storage: Optional[NodeStorage] = None,
        probe_stagger: float = DEFAULT_PROBE_STAGGER,
        tracer=None,
        admin_client: Optional[ClientId] = None,
    ):
        self.node_id = node_id
        self.config = config
        self.sim = sim
        self.network = network
        self.key_store = key_store
        self.client_ids = list(client_ids)
        self.on_deliver = on_deliver
        #: Observability hook (``repro.obs.RequestTracer``); ``None`` keeps
        #: every instrumentation site a single attribute test.
        self.tracer = tracer
        self.fault_injector = fault_injector
        self.straggler = straggler if straggler and straggler.node == node_id else None
        #: Byzantine behaviour of *this* node (censorship is honoured here in
        #: ``_cut_batch``; send-level behaviours live in the network hook).
        self.byzantine = byzantine if byzantine and byzantine.node == node_id else None
        self.layout = layout
        #: Durable storage (the WAL); ``None`` disables persistence.
        self.storage = storage
        #: Catch-up mode: while True (from a restart, a join or a heal until
        #: the node completes an epoch ahead of its stable certificate), a
        #: stable checkpoint for the *current* epoch triggers state transfer
        #: at once, not after :data:`STALLED_CATCHUP_GRACE`.
        self._catchup_aggressive = False
        #: Pending stalled-epoch re-check (:data:`STALLED_CATCHUP_GRACE`);
        #: at most one armed at a time.
        self._wedge_timer = None

        # --- replicated state -------------------------------------------------
        self.log = Log()
        self.buckets = BucketPool(config.num_buckets)
        self.watermarks = ClientWatermarks(config.client_watermark_window)
        self.validator = RequestValidator(
            key_store,
            self.client_ids,
            self.watermarks,
            verify_signatures=config.client_signatures,
        )
        #: Every epoch's replica set, derived from the ConfigTxs of
        #: ``admin_client`` — the one identity whose ConfigTxs count — in the
        #: committed log, so WAL replay and state transfer rebuild it for
        #: free.  Without an admin the genesis view governs every epoch.
        self.membership = MembershipTracker(config, admin_client)
        #: Harness hook fired on every membership activation:
        #: ``listener(node_id, epoch, view, added, removed)``.
        self.membership_listener = None
        #: True once this node was removed from membership and quiesced.
        self.retired = False
        #: First epoch this incarnation is a member of.  Genesis replicas
        #: are members from epoch 0; a (re-)added replica is a member from
        #: the activation epoch of its add-ConfigTx.  Removals activated
        #: *before* this epoch are history the node replays while catching
        #: up (a rolling upgrade's earlier removal of the very same id) —
        #: they must not retire the new incarnation.
        self.join_epoch: EpochNr = 0
        self.manager = EpochManager(
            config, self.membership, policy=policy, layout=layout
        )
        #: Meaningful once :meth:`start_at` ran; until then 0 is a placeholder.
        self.current_epoch: EpochNr = 0
        self._started = False
        #: Batches this node proposed and SB has not yet decided, per sequence
        #: number (for resurrection).
        self._proposed: Dict[SeqNr, Batch] = {}
        #: Requests seen in accepted proposals of the current epoch, mapped to
        #: the digest of the batch they appeared in (duplication check that
        #: still accepts re-validations of the very same batch).  An entry
        #: goes at the request's delivery, the whole index at the epoch's end.
        self._proposed_this_epoch: Dict[object, bytes] = {}
        self.crashed = False

        # --- sub-protocols ----------------------------------------------------
        self.orderer = Orderer(default_factory(config))
        self.checkpoints = CheckpointProtocol(
            node_id=node_id,
            config=config,
            key_store=key_store,
            broadcast_fn=self._broadcast_to_nodes,
            on_stable=self._on_stable_checkpoint,
            membership=self.membership,
        )
        self.state_transfer = StateTransfer(
            node_id=node_id,
            config=config,
            checkpoints=self.checkpoints,
            send_fn=self._send_to_node,
            apply_entry_fn=self._apply_transferred_entry,
            schedule_fn=sim.schedule,
            probe_stagger=probe_stagger,
        )

        #: When each replica (this one included) was last heard from: a
        #: peer speaking again after a view change timeout of silence may
        #: mean a healed partition (see :meth:`_on_peer_return`).
        self._last_heard: Dict[NodeId, float] = {}
        #: Peers back from such a silence whose epoch no message has shown
        #: yet (see :meth:`_on_peer_return`).
        self._returned: Set[NodeId] = set()
        #: Instance messages buffered for epochs we have not started yet.
        self._pending_messages: Dict[EpochNr, List[Tuple[NodeId, InstanceMessage]]] = {}
        #: Statistics.
        self.requests_received = 0
        self.batches_committed = 0
        self.nil_committed = 0
        self.epochs_completed = 0
        #: Misbehaviour diagnostics (reported by SB instances; see
        #: ``SBContext.report_misbehaviour``).  Eviction of Byzantine
        #: leaders stays log-driven (⊥ entries → FailureHistory), so these
        #: counters never influence leaderset computation.
        self.equivocations_detected = 0
        #: Forged protocol votes rejected by this node's SB instances.
        self.invalid_votes_rejected = 0
        #: View/round changes completed across all SB instances this node has
        #: ever hosted (the per-instance counters die with epoch garbage
        #: collection; partition diagnostics need a persistent figure).
        self.view_changes = 0
        #: Duplicate submissions absorbed per client (re-transmissions of
        #: delivered or already-pending requests; abusive flooders inflate
        #: this, honest epoch-driven resubmission contributes too).
        self.duplicate_requests: Dict[int, int] = {}

        network.register(node_id, self.on_message)

    # ====================================================================== API
    def start(self) -> None:
        """Boot the node at epoch 0."""
        self.start_at(0)

    def start_at(self, epoch: EpochNr) -> None:
        """Boot the node at ``epoch`` (0 for a fresh boot, the recovery
        manager's resume epoch after a restart).  Instance messages buffered
        before the boot for epochs below ``epoch`` are stale and go."""
        self._started = True
        for stale in [e for e in self._pending_messages if e < epoch]:
            del self._pending_messages[stale]
        self._start_epoch(epoch)

    def crash(self) -> None:
        """Stop all local activity (used by the fault injector)."""
        self.crashed = True
        self.orderer.stop_all()
        self.state_transfer.stop()
        if self._wedge_timer is not None:
            self._wedge_timer.cancel()
            self._wedge_timer = None

    def begin_recovery_catchup(self) -> None:
        """After a restart, a join or a heal: fetch everything the peers
        can prove stable.

        Sends the open-ended state-transfer probe and enters catch-up mode
        (a stable checkpoint for the *current* epoch with an incomplete
        local log triggers transfer at once — the epoch's SB instances were
        garbage collected at the peers, so votes alone can no longer
        complete it here).  Recovery calls it after WAL replay; the node
        calls it itself when a peer returns from a silence that looks like
        a healed partition (:meth:`_on_peer_return`).  The node leaves the
        mode by itself, at the first epoch it completes before that epoch's
        stable certificate exists (see :meth:`_after_commit`).
        """
        self._catchup_aggressive = True
        self._returned.clear()
        self.state_transfer.request_latest(self.current_epoch, self._peer_nodes())

    def submit_request(self, request: Request) -> bool:
        """Entry point for a locally injected request (bypassing the network).

        Equivalent to receiving a ⟨REQUEST⟩ message; mainly used by tests and
        examples that do not want to instantiate client processes.
        """
        return self._handle_client_request(request)

    # ============================================================== networking
    def _active_nodes(self) -> Sequence[NodeId]:
        """The replica set this node currently addresses: the current
        epoch's membership view."""
        return self.membership.view_for(self.current_epoch).nodes

    def _peer_nodes(self) -> List[NodeId]:
        """Every active node except this one (state-transfer peer set)."""
        peers = [n for n in self._active_nodes() if n != self.node_id]
        if not peers:
            # A node outside its own view (e.g. a joiner whose local seal
            # frontier predates its admission) probes the genesis replicas.
            peers = [n for n in range(self.config.num_nodes) if n != self.node_id]
        return peers

    def _send_to_node(self, dst: NodeId, message: object) -> None:
        self.network.send(self.node_id, dst, message)

    def _broadcast_to_nodes(self, message: object) -> None:
        """One multicast to every active node; this node's own copy comes
        back through :meth:`on_message` without network cost."""
        self.network.multicast(self.node_id, self._active_nodes(), message)

    def on_message(self, src: NodeId, message: object) -> None:
        """Network entry point: dispatch by message type."""
        if self.crashed:
            return
        if src < CLIENT_ENDPOINT_OFFSET:
            now = self.sim.now
            last_heard = self._last_heard
            if now - last_heard.get(src, now) >= self.config.view_change_timeout:
                self._on_peer_return(src)  # still counts src as silent
            last_heard[src] = now
        if message.__class__ is InstanceMessage:
            # The n² path: one table hit, then straight into the instance.
            instance = self.orderer.instances.get(message.instance_id)
            if instance is not None:
                instance.handle_message(src, message.payload)
            else:
                self._on_unrouted_instance_message(src, message)
        elif isinstance(message, ClientRequestMsg):
            self._handle_client_request(message.request)
        elif isinstance(message, CheckpointMsg):
            if src in self._returned:
                self._returned_peer_shown(src, message.epoch >= self.current_epoch)
            self.checkpoints.handle_message(src, message)
            self._maybe_request_state_transfer(message.epoch)
        elif isinstance(message, StateRequest):
            for response in self.state_transfer.build_responses(message, self.log):
                self._send_to_node(src, response)
        elif isinstance(message, StateResponse):
            self.state_transfer.handle_response(response=message, log=self.log)
            self._after_commit()

    def _on_peer_return(self, src: NodeId) -> None:
        """``src`` spoke after at least a view change timeout of silence.

        The replica's own heal trigger, run before the message is handled.
        If so many peers of the current view were silent that long that
        the rest could not form a strong quorum with this node, this node
        was cut off: it probes for state and nudges its stalled instances,
        whose timers backed off while no quorum could answer.  Otherwise
        the peer's next message that shows its epoch — a checkpoint vote,
        or an instance message for an epoch this node has not started or
        no longer hosts — decides: the node catches up if the peer is ahead
        (see :meth:`_returned_peer_shown`).  A node already catching up
        does neither.
        """
        if src == self.node_id or self._catchup_aggressive:
            return
        view = self.membership.view_for(self.current_epoch)
        now = self.sim.now
        timeout = self.config.view_change_timeout
        last_heard = self._last_heard
        silent = sum(
            1
            for peer in view.nodes
            if peer != self.node_id and now - last_heard.get(peer, now) >= timeout
        )
        if view.num_nodes - silent < view.strong_quorum:
            self.begin_recovery_catchup()
            self._nudge_stalled_instances()
        else:
            self._returned.add(src)

    def _returned_peer_shown(self, src: NodeId, ahead: bool) -> None:
        """A returned peer's message showed its epoch: an instance message
        this node buffers or a checkpoint vote for this node's epoch or a
        later one puts the peer ahead, and this node catches up."""
        self._returned.discard(src)
        if ahead and not self._catchup_aggressive:
            self.begin_recovery_catchup()

    def _nudge_stalled_instances(self) -> None:
        """Prod every live SB instance to re-examine liveness now (see
        :meth:`repro.core.sb.SBInstance.nudge`).

        State transfer only serves checkpoint-backed prefixes; epochs where
        *no* side kept a quorum (a bridge partition, say) have no stable
        checkpoint to transfer, and their decided-but-unfinished instances
        can only complete through the protocol's own view/round machinery —
        whose timers were exponentially backed off during the outage.
        """
        for instance in list(self.orderer.active_instances()):
            instance.nudge()

    # ======================================================== client requests
    def _handle_client_request(self, request: Request) -> bool:
        self.requests_received += 1
        rid = request.rid
        tracer = self.tracer
        if self.watermarks.committed(rid.client, rid.timestamp):
            # Re-transmission of an already committed request: re-acknowledge
            # it once it is delivered in order.  Until then its ordinary
            # acknowledgement (_send_delivery_responses) is still to come; an
            # earlier one would let f+1 replicas complete a request that a
            # lagging segment still holds behind an open position.
            if tracer is not None:
                tracer.on_duplicate(self.sim.now, self.node_id, rid)
            self._note_duplicate(rid.client)
            if not self.log.awaits_delivery(rid):
                self._send_client_response(rid, -1)
            return False
        if not self.validator.is_valid(request):
            if tracer is not None:
                tracer.on_reject(self.sim.now, self.node_id, rid, "invalid")
            return False
        if self.buckets.add_request(request):
            if tracer is not None:
                tracer.on_admit(self.sim.now, self.node_id, rid)
            return True
        if tracer is not None:
            tracer.on_duplicate(self.sim.now, self.node_id, rid)
        self._note_duplicate(rid.client)
        return False

    def _note_duplicate(self, client: int) -> None:
        self.duplicate_requests[client] = self.duplicate_requests.get(client, 0) + 1

    def _send_client_response(self, rid, sn: int) -> None:
        """Acknowledge a single request (used for re-transmission re-acks)."""
        if not self.config.send_client_responses:
            return
        self.network.send(
            self.node_id,
            client_endpoint(rid.client),
            ClientResponseBatchMsg(
                client=rid.client, entries=((rid, sn),), node=self.node_id
            ),
        )

    def _send_delivery_responses(self, delivered: Sequence[DeliveredRequest]) -> None:
        """Acknowledge a commit step's deliveries, aggregated per client.

        One ⟨RESPONSE⟩ message per (client, commit step) instead of one per
        request: same information reaches the same clients, with per-request
        completion semantics preserved by the entry list.
        """
        groups: Dict[int, List[Tuple[object, int]]] = {}
        for item in delivered:
            rid = item.request.rid
            group = groups.get(rid.client)
            if group is None:
                groups[rid.client] = group = []
            group.append((rid, item.sn))
        node = self.node_id
        for client, entries in groups.items():
            self.network.send(
                node,
                client_endpoint(client),
                ClientResponseBatchMsg(client=client, entries=tuple(entries), node=node),
            )

    # ============================================================ epoch logic
    def _start_epoch(self, epoch: EpochNr) -> None:
        if self.crashed:
            return
        self.current_epoch = epoch
        self._proposed_this_epoch = {}
        if self.storage is not None:
            self.storage.record_epoch_start(epoch)
        if self.fault_injector is not None:
            self.fault_injector.notify_epoch_start(self.node_id, epoch)
            if self.crashed:
                return
        if self.manager.epoch_complete(epoch, self.log):
            # Every position of the epoch is already committed (state
            # transfer or recovery replay ran ahead): opening SB instances
            # would re-propose decided positions and strand the requests
            # they cut.  The transition loop in _after_commit finishes the
            # epoch immediately; buffered instance messages are stale.
            self._pending_messages.pop(epoch, None)
            return
        segments = self.manager.segments_for(epoch)
        interval = self.manager.proposal_interval(epoch)
        for segment in segments:
            context = self._build_context(segment, interval)
            self.orderer.open_segment(context)
        self._announce_buckets_to_clients(epoch, segments)
        # Process protocol messages that arrived before we reached this epoch.
        for src, message in self._pending_messages.pop(epoch, []):
            self.on_message(src, message)

    def _build_context(self, segment: SegmentDescriptor, interval: float) -> SBContext:
        is_straggler_leader = self.straggler is not None and segment.leader == self.node_id
        node_id = self.node_id
        instance_id = segment.instance_id
        network = self.network
        return SBContext(
            node_id=node_id,
            config=self.config,
            segment=segment,
            membership=self.membership.view_for(segment.epoch),
            send_fn=lambda dst, payload: network.send(
                node_id, dst, InstanceMessage(instance_id, payload)
            ),
            local_fn=lambda payload: self.sim.call_soon(
                lambda: self.on_message(node_id, InstanceMessage(instance_id, payload))
            ),
            multicast_fn=lambda dsts, payload: network.multicast(
                node_id, dsts, InstanceMessage(instance_id, payload)
            ),
            schedule_fn=self.sim.schedule,
            now_fn=lambda: self.sim.now,
            cut_batch_fn=lambda sn, seg=segment: self._cut_batch(seg, sn),
            validate_batch_fn=lambda batch, seg=segment: self._validate_batch(seg, batch),
            deliver_fn=lambda sn, value, seg=segment: self._sb_deliver(seg, sn, value),
            decided_value_fn=self.log.entry,
            pending_fn=lambda seg=segment: self.buckets.pending_in(seg.buckets),
            proposal_interval=interval,
            may_propose_fn=lambda sn, seg=segment: self._may_propose(seg, sn),
            proposal_delay=self.straggler.delay if is_straggler_leader else 0.0,
            force_empty_proposals=(
                self.straggler.propose_empty if is_straggler_leader else False
            ),
            key_store=self.key_store,
            report_misbehaviour_fn=self._note_misbehaviour,
            timeout_jitter_fn=self._make_timeout_jitter(segment),
            note_view_change_fn=self._note_view_change,
            tracer=self.tracer,
        )

    def _make_timeout_jitter(self, segment: SegmentDescriptor) -> Callable[[], float]:
        """Deterministic per-instance jitter source for view/round timeouts.

        Samples ``1 + U[0, VIEW_CHANGE_JITTER)``.  The seed mixes only
        integers — the deployment seed, this node and the instance id — so
        different nodes arm the same logical timeout desynchronised while
        the whole schedule stays reproducible across runs.
        """
        epoch, leader = segment.instance_id
        seed = (
            (self.config.random_seed * 2654435761)
            ^ (int(self.node_id) * 1_000_003)
            ^ (int(epoch) * 7919)
            ^ (int(leader) * 104_729)
        ) & 0xFFFFFFFF
        rng = random.Random(seed ^ 0x7177E4)
        return lambda: 1.0 + VIEW_CHANGE_JITTER * rng.random()

    def _note_view_change(self) -> None:
        """Count one completed view/round change (all instances, all epochs)."""
        self.view_changes += 1

    def _note_misbehaviour(self, kind: str, offender: NodeId) -> None:
        """Count provable misbehaviour reported by an SB instance.

        Diagnostics only (read per node by ``scenarios.row``):
        leaderset eviction is driven exclusively by the log-visible ``⊥``
        entries so all correct nodes keep computing identical leadersets.
        """
        if kind == "equivocation":
            self.equivocations_detected += 1
        elif kind == "invalid-signature":
            self.invalid_votes_rejected += 1

    def _announce_buckets_to_clients(self, epoch: EpochNr, segments: Sequence[SegmentDescriptor]) -> None:
        if not self.client_ids:
            return
        assignment = []
        for segment in segments:
            for bucket in segment.buckets:
                assignment.append((bucket, segment.leader))
        message = BucketAssignmentMsg(epoch=epoch, assignment=tuple(sorted(assignment)))
        for client in self.client_ids:
            self.network.send(self.node_id, client_endpoint(client), message)

    # =============================================================== proposals
    def _cut_batch(self, segment: SegmentDescriptor, sn: SeqNr) -> Batch:
        """Cut a batch for one of our sequence numbers (Algorithm 2, propose).

        A censoring Byzantine leader (``ByzantineSpec(behaviour="censor")``)
        silently skips its targeted buckets: the requests stay queued at
        every correct node and are proposed as soon as bucket rotation
        (Section 3.2) hands the bucket to an honest leader — the exact
        liveness argument the censorship scenarios measure.
        """
        if self.straggler is not None and self.straggler.propose_empty:
            batch = Batch.of(())
        else:
            buckets = list(segment.buckets)
            byzantine = self.byzantine
            if (
                byzantine is not None
                and byzantine.behaviour == BYZ_CENSOR
                and self.sim.now >= byzantine.start_time
            ):
                censored = set(byzantine.buckets)
                buckets = [b for b in buckets if b not in censored]
            requests = self.buckets.cut_batch(buckets, self.config.max_batch_size)
            batch = Batch.of(requests)
        self._proposed[sn] = batch
        tracer = self.tracer
        if tracer is not None:
            rids = tuple(r.rid for r in batch.requests if tracer.wants(r.rid))
            tracer.on_propose(self.sim.now, self.node_id, segment.instance_id, sn, rids)
        return batch

    def _may_propose(self, segment: SegmentDescriptor, sn: SeqNr) -> bool:
        if self.crashed:
            return False
        if self.fault_injector is not None and sn == segment.seq_nrs[-1]:
            if self.fault_injector.notify_last_proposal(self.node_id, segment.epoch):
                return False
        return not self.crashed

    def _validate_batch(self, segment: SegmentDescriptor, batch: Batch) -> bool:
        """Follower acceptance rules (a)–(c) of Section 4.2."""
        digest = batch.digest()
        requests = batch.requests
        allowed_buckets = segment.bucket_set()
        num_buckets = self.buckets.num_buckets
        committed = self.watermarks.committed
        proposed = self._proposed_this_epoch
        proposed_get = proposed.get
        is_valid = self.validator.is_valid
        seen_in_batch = set()
        seen_add = seen_in_batch.add
        for request in requests:
            rid = request.rid
            if rid in seen_in_batch:
                return False
            seen_add(rid)
            if rid._mix % num_buckets not in allowed_buckets:
                return False
            if committed(rid.client, rid.timestamp):
                return False
            earlier = proposed_get(rid)
            if earlier is not None and earlier != digest:
                return False
            if not is_valid(request):
                return False
        for request in requests:
            proposed[request.rid] = digest
        return True

    # ================================================================ delivery
    def _sb_deliver(self, segment: SegmentDescriptor, sn: SeqNr, value: LogEntry) -> None:
        """SB-DELIVER handler (Algorithm 1, lines 40–48)."""
        if self.crashed:
            return
        if self.log.has_entry(sn):
            return
        self.log.commit(sn, value, segment.epoch, self.sim.now)
        if self.tracer is not None:
            self.tracer.on_commit(
                self.sim.now, self.node_id, segment.instance_id, sn, is_nil(value)
            )
        if self.storage is not None:
            self.storage.record_commit(sn, value, segment.epoch)
        # Decided either way: the copy kept for resurrection has served.
        proposed = self._proposed.pop(sn, None)
        if is_nil(value):
            self.nil_committed += 1
            if proposed is not None:
                # Our own proposal was aborted: return its requests to the
                # bucket queues so a later segment can re-propose them,
                # except those that committed elsewhere in the meantime.
                committed = self.watermarks.committed
                self.buckets.resurrect(
                    request
                    for request in proposed.requests
                    if not committed(request.rid.client, request.rid.timestamp)
                )
        else:
            self.batches_committed += 1
            self._mark_delivered(sn, value.requests)
        self._after_commit()

    def _apply_transferred_entry(self, sn: SeqNr, entry: LogEntry, epoch: EpochNr) -> None:
        """Apply a state-transferred log entry (same effects as SB-DELIVER)."""
        if self.log.has_entry(sn):
            return
        self.restore_entry(sn, entry, epoch)
        if self.storage is not None:
            self.storage.record_commit(sn, entry, epoch)

    def restore_entry(self, sn: SeqNr, entry: LogEntry, epoch: EpochNr) -> None:
        """Apply one already-persisted entry without re-persisting it.

        The recovery manager replays the WAL's entries through this
        method; the bookkeeping mirrors SB-DELIVER (bucket queues, client
        watermarks, commit counters) minus the persist hook and the
        delivery/epoch advancement, which recovery drives itself.
        """
        if self.log.has_entry(sn):
            return
        self.log.commit(sn, entry, epoch, self.sim.now)
        if not is_nil(entry):
            self.batches_committed += 1
            self._mark_delivered(sn, entry.requests)

    def _mark_delivered(self, sn: SeqNr, requests: Sequence[Request]) -> None:
        """Bookkeeping of every commit path (SB-DELIVER, state transfer,
        recovery replay).  The signature memo entry and the proposal-index
        entry go too: the client watermarks answer for the request from now
        on (``_validate_batch`` asks them first).  The membership tracker
        notes the batch's ConfigTxs for the epoch's seal."""
        self.membership.note_commit(sn, requests)
        verified = self.validator.verify_signatures
        proposed_pop = self._proposed_this_epoch.pop
        for request in requests:
            rid = request.rid
            proposed_pop(rid, None)
            self.buckets.mark_delivered(request)
            self.watermarks.note_delivered(rid.client, rid.timestamp)
            if verified:
                self.key_store.forget_digest(rid.client, request.digest(), request.signature)

    def _after_commit(self) -> None:
        """Advance contiguous delivery and epoch state after any commit."""
        delivered = self.log.advance_delivery(self.sim.now)
        if delivered:
            if self.config.send_client_responses:
                self._send_delivery_responses(delivered)
            if self.tracer is not None:
                self.tracer.on_deliver_batch(self.sim.now, self.node_id, delivered)
            if self.on_deliver is not None:
                self._notify_delivered(delivered)
        # A run of ⊥ delivers no request but still moves the delivered prefix.
        self.evict_delivered()
        # Epoch transitions: the current epoch may now be complete; epochs are
        # processed strictly sequentially (Algorithm 1, line 50).
        while self.manager.epoch_complete(self.current_epoch, self.log) and not self.crashed:
            finished = self.current_epoch
            activation = self.manager.finish_epoch(finished, self.log)
            self.checkpoints.local_epoch_complete(finished, self.log)
            self.watermarks.advance_epoch()
            self.epochs_completed += 1
            if (
                self._catchup_aggressive
                and self.checkpoints.stable_checkpoint(finished) is None
            ):
                # Completed ahead of the epoch's certificate (our own vote is
                # already counted): the node keeps pace, catch-up is over.
                self._catchup_aggressive = False
            if activation[0] or activation[1]:
                self._on_membership_activation(finished + 1, *activation)
                if self.retired:
                    return
            self._start_epoch(finished + 1)

    def _notify_delivered(self, delivered: List[DeliveredRequest]) -> None:
        """Hand each delivered request to the listener; a message it returns
        is the application's reply, sent to the request's client."""
        on_deliver = self.on_deliver
        node_id = self.node_id
        for item in delivered:
            reply = on_deliver(node_id, item)
            if reply is not None:
                self.network.send(node_id, client_endpoint(item.request.rid.client), reply)

    # ======================================================= dynamic membership
    def _on_membership_activation(
        self, epoch: EpochNr, added: Tuple[NodeId, ...], removed: Tuple[NodeId, ...]
    ) -> None:
        """A sealed epoch changed the membership, effective from ``epoch``.

        Persists the activated view, emits observability events, notifies
        the harness (which boots joining replicas and quiesces removed
        ones), and — when this node itself was removed — retires it.  The
        finished epoch's SB instances have all delivered by construction
        (the epoch is complete), so nothing is left in flight to drain.
        """
        view = self.membership.view_for(epoch)
        if self.storage is not None:
            self.storage.record_membership(epoch, view.nodes)
        if self.tracer is not None:
            self.tracer.on_membership(self.sim.now, self.node_id, epoch, added, removed)
        listener = self.membership_listener
        if listener is not None:
            listener(self.node_id, epoch, view, added, removed)
        if self.node_id not in view and epoch >= self.join_epoch:
            self.retire()

    def retire(self) -> None:
        """Quiesce a replica removed from membership.

        Identical teardown to :meth:`crash` (stop SB instances, state
        transfer, timers) plus the ``retired`` marker the harness and the
        invariant checkers use to distinguish a clean removal from a fault.
        The node's delivered log remains a valid prefix; it just stops
        extending it.
        """
        if self.retired:
            return
        self.retired = True
        self.crash()

    # ============================================================ checkpointing
    def _on_stable_checkpoint(self, epoch: EpochNr, certificate) -> None:
        """Garbage-collect the epoch's instances once its checkpoint is stable,
        and persist the certificate (which seals the run below it)."""
        if self.tracer is not None:
            self.tracer.on_checkpoint(self.sim.now, self.node_id, epoch)
        self.orderer.stop_epoch(epoch)
        if self.storage is not None:
            self.storage.record_stable_checkpoint(certificate)
            self.evict_delivered()

    def evict_delivered(self) -> None:
        """Drop every delivered entry from memory: its WAL record was fsync'd
        before delivery, so storage answers for it from then on.  The log
        keeps the digests of the unsealed ones until a stable checkpoint
        seals them.  A node without storage never evicts."""
        storage = self.storage
        if storage is not None:
            self.log.evict_through(
                self.log.first_undelivered - 1,
                storage,
                sealed_through=storage.sealed_count() - 1,
            )

    def _maybe_request_state_transfer(self, checkpoint_epoch: EpochNr) -> None:
        """A stable checkpoint ahead of us means we fell behind: catch up."""
        if checkpoint_epoch > self.current_epoch:
            self.state_transfer.request_missing(
                self.current_epoch, checkpoint_epoch, self._peer_nodes()
            )
        elif (
            checkpoint_epoch == self.current_epoch
            and self.checkpoints.stable_checkpoint(checkpoint_epoch) is not None
            and not self.manager.epoch_complete(checkpoint_epoch, self.log)
        ):
            # The current epoch is provably decided but our log has holes
            # the peers' garbage-collected SB instances no longer fill.  In
            # catch-up mode transfer at once, even if an earlier request is
            # in flight; otherwise (persistent message loss) the in-flight
            # commits get one grace period to land first.
            if self._catchup_aggressive:
                self.state_transfer.request_missing(
                    checkpoint_epoch, checkpoint_epoch, self._peer_nodes(), force=True
                )
            elif self._wedge_timer is None:
                self._wedge_timer = self.sim.schedule(
                    STALLED_CATCHUP_GRACE,
                    lambda: self._catchup_if_wedged(checkpoint_epoch),
                )

    def _catchup_if_wedged(self, epoch: EpochNr) -> None:
        """Grace period expired: force a transfer if the epoch is still stuck."""
        self._wedge_timer = None
        if self.crashed or epoch != self.current_epoch:
            return
        if self.manager.epoch_complete(epoch, self.log):
            return
        if self.checkpoints.stable_checkpoint(epoch) is None:
            return
        self.state_transfer.request_missing(epoch, epoch, self._peer_nodes(), force=True)

    # ======================================================= instance messages
    def _on_unrouted_instance_message(self, src: NodeId, message: InstanceMessage) -> None:
        """A protocol message for an instance this node does not host."""
        epoch = message.instance_id[0]
        ahead = epoch > self.current_epoch or not self._started
        if src in self._returned:
            self._returned_peer_shown(src, ahead)
        if ahead:
            # An epoch this node has not started (any epoch before start(),
            # whose current_epoch is only a placeholder): buffer until we
            # get there; if we are far behind, also trigger state transfer
            # for the missing epochs.
            self._pending_messages.setdefault(epoch, []).append((src, message))
            if epoch > self.current_epoch + 1:
                self._maybe_request_state_transfer(epoch - 1)
        # Messages for garbage-collected epochs are stale and dropped.

    # ================================================================= queries
    def delivered_count(self) -> int:
        return self.log.total_delivered_requests

    def pending_requests(self) -> int:
        return self.buckets.total_pending()

    def invalid_signatures_rejected(self) -> int:
        """Total forged signatures this node rejected, across every layer:
        client request signatures (validator), checkpoint votes, and SB
        protocol votes (e.g. HotStuff partial signatures)."""
        return (
            self.validator.stats.bad_signature
            + self.checkpoints.invalid_signatures_rejected
            + self.invalid_votes_rejected
        )
