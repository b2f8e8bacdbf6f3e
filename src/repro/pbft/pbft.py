"""PBFT as a Sequenced Broadcast implementation (Section 4.2.1).

One :class:`PbftSB` instance orders exactly the sequence numbers of one ISS
segment.  View 0's primary is the segment leader (the SB designated sender);
any later view's primary — chosen round-robin — may only re-propose values
that were prepared under the segment leader or propose ``⊥``, which together
with the follower acceptance rules makes the instance satisfy SB1–SB4.

Adaptations from the textbook protocol, following the paper:

* no per-request timers: a single timer per instance is reset whenever *any*
  sequence number commits (bucket rotation already prevents censoring);
* the leader's proposal rate is capped by the shared
  :class:`~repro.core.pacing.ProposalPacer` (fixed batch rate, Section 4.4.1);
* view changes use signed messages in the style of Castro-Liskov'01.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.pacing import ProposalPacer
from ..core.sb import SBContext, SBInstance
from ..core.types import Batch, LogEntry, NIL, NodeId, SeqNr, ViewNr, is_nil
from ..runtime.api import Timer
from .messages import Commit, NewView, Prepare, PreparedProof, PrePrepare, ViewChange


@dataclass
class _Slot:
    """Per-sequence-number agreement state."""

    sn: SeqNr
    preprepare: Optional[PrePrepare] = None
    #: Value carried by the accepted pre-prepare (batch or ⊥).
    value: Optional[LogEntry] = None
    prepares: Dict[Tuple[ViewNr, bytes], Set[NodeId]] = field(default_factory=dict)
    commits: Dict[Tuple[ViewNr, bytes], Set[NodeId]] = field(default_factory=dict)
    prepare_sent: Set[ViewNr] = field(default_factory=set)
    commit_sent: Set[ViewNr] = field(default_factory=set)
    #: Highest view in which a value was prepared, with its proof.
    prepared_proof: Optional[PreparedProof] = None
    committed: bool = False
    #: Once committed, the slot keeps only the decided value's digest and
    #: the view it was prepared in (None: committed without a local
    #: prepare quorum); the value itself is read back from the host's log.
    decided_digest: Optional[bytes] = None
    decided_view: Optional[ViewNr] = None
    #: Views for which primary equivocation was already reported (once each).
    equivocation_reported: Set[ViewNr] = field(default_factory=set)


class PbftSB(SBInstance):
    """PBFT engine scoped to a single segment."""

    def __init__(self, context: SBContext):
        super().__init__(context)
        self.view: ViewNr = 0
        self._slots: Dict[SeqNr, _Slot] = {
            sn: _Slot(sn=sn) for sn in context.segment.seq_nrs
        }
        self._pacer = ProposalPacer(context, self._leader_propose)
        self._view_timer: Optional[Timer] = None
        self._base_view_timeout = context.config.view_change_timeout
        self._view_timeout = context.config.view_change_timeout
        self._view_changes: Dict[ViewNr, Dict[NodeId, ViewChange]] = {}
        self._new_view_installed: Set[ViewNr] = set()
        #: Highest view we have demanded via a VIEW-CHANGE message.
        self._highest_vc_sent: ViewNr = 0
        self._stopped = False
        #: Slots not yet committed; the instance is done at zero.
        self._uncommitted = len(self._slots)
        self._quorum = context.strong_quorum
        #: Position of the view-0 primary in the node order (see primary_of).
        self._leader_index = context.all_nodes.index(context.segment.leader)
        #: Statistics for tests / metrics.
        self.view_changes_completed = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """SB-INIT: leaders start proposing; everyone arms the view timer."""
        self._arm_view_timer()
        self._pacer.start()

    def stop(self) -> None:
        self._stopped = True
        self._pacer.stop()
        if self._view_timer is not None:
            self._view_timer.cancel()
            # The timer holds a bound method of this instance: keeping it
            # would leave the stopped instance (and its slots' batches) in a
            # reference cycle only a full cyclic collection frees.
            self._view_timer = None

    # ------------------------------------------------------------ utilities
    def primary_of(self, view: ViewNr) -> NodeId:
        """Primary of ``view``: the segment leader in view 0, then round-robin."""
        nodes = self.context.all_nodes
        return nodes[(self._leader_index + view) % len(nodes)]

    def _all_committed(self) -> bool:
        return self._uncommitted == 0

    # ---------------------------------------------------------- leader path
    def _leader_propose(self, sn: SeqNr, batch: Batch) -> None:
        """Pacer callback at the segment leader (view 0 primary)."""
        if self._stopped or self.view != 0:
            return
        slot = self._slots[sn]
        if slot.preprepare is not None or slot.committed:
            return
        message = PrePrepare(view=0, sn=sn, value=batch, digest=batch.digest())
        self.context.broadcast(message)

    # ------------------------------------------------------------- messages
    def handle_message(self, src: NodeId, message: object) -> None:
        if self._stopped:
            return
        handler = _HANDLERS.get(message.__class__)
        if handler is not None:
            handler(self, src, message)

    # ------------------------------------------------------------ agreement
    def _accept_preprepare(self, src: NodeId, message: PrePrepare) -> bool:
        """Follower acceptance rules (Section 4.2, rules (a)–(d))."""
        if message.sn not in self._slots:
            return False
        if message.view != self.view or message.view < self._highest_vc_sent:
            # After demanding view v+1 a replica takes no part in views up
            # to v (Castro & Liskov §4.4): its VIEW-CHANGE reported only
            # what it had prepared by then.
            return False
        if src != self.primary_of(message.view):
            return False
        slot = self._slots[message.sn]
        if slot.committed:
            return False
        if slot.preprepare is not None and slot.preprepare.view >= message.view:
            return False
        if is_nil(message.value):
            # ⊥ may only be proposed by a non-initial view's primary.
            return message.view > 0
        if not isinstance(message.value, Batch):
            return False
        if message.value.digest() != message.digest:
            return False
        if message.view == 0:
            # Only the segment leader (view-0 primary) proposes real batches.
            return self.context.validate_batch(message.value)
        # A later view may carry a real batch only when re-proposing a value
        # prepared under the segment leader (checked via the new-view path,
        # which installs such pre-prepares directly).
        slot_proof = slot.prepared_proof
        return slot_proof is not None and slot_proof.digest == message.digest

    def _on_preprepare(self, src: NodeId, message: PrePrepare) -> None:
        if not self._accept_preprepare(src, message):
            return
        slot = self._slots[message.sn]
        slot.preprepare = message
        slot.value = message.value
        self._send_prepare(slot, message.view, message.digest)
        # Prepare votes conflicting with this proposal may already be here.
        self._maybe_detect_equivocation(slot)

    def _send_prepare(self, slot: _Slot, view: ViewNr, digest: bytes) -> None:
        if view in slot.prepare_sent:
            return
        slot.prepare_sent.add(view)
        tracer = self.context.tracer
        if tracer is not None:
            tracer.on_sb(
                self.context.now(), self.context.node_id,
                self.context.segment.instance_id, slot.sn, "prepare-vote",
            )
        self.context.broadcast(Prepare(view=view, sn=slot.sn, digest=digest))

    def _on_prepare(self, src: NodeId, message: Prepare) -> None:
        slot = self._slots.get(message.sn)
        if slot is None or slot.committed:
            return
        view = message.view
        digest = message.digest
        key = (view, digest)
        voters = slot.prepares.get(key)
        if voters is None:
            voters = slot.prepares[key] = set()
        voters.add(src)
        accepted = slot.preprepare
        if accepted is None:
            # Nothing to compare the vote against yet.  When the proposal
            # arrives, _on_preprepare scans the collected votes for
            # equivocation and this node's own PREPARE re-counts the quorum.
            return
        if accepted.digest != digest:
            # Only a vote against the accepted proposal can add evidence.
            self._maybe_detect_equivocation(slot)
        elif len(voters) >= self._quorum and view >= self._highest_vc_sent:
            # No COMMIT for a view this replica already demanded to leave.
            self._send_commit(slot, view, digest)

    def _maybe_detect_equivocation(self, slot: _Slot) -> None:
        """Detect primary equivocation from conflicting prepare votes.

        ``f+1`` prepare votes for a digest *different* from the pre-prepare
        this node accepted in the same view prove at least one *correct*
        node accepted a conflicting pre-prepare — over authenticated
        channels, only an equivocating primary can produce that state.
        Reported once per (slot, view) via the context (diagnostics only;
        eviction stays log-driven, see ``SBContext.report_misbehaviour``).
        """
        accepted = slot.preprepare
        if accepted is None:
            return
        view = accepted.view
        if view in slot.equivocation_reported:
            return
        if self.primary_of(view) == self.context.node_id:
            return  # our own proposal cannot prove someone else equivocated
        weak = self.context.weak_quorum
        for (vote_view, digest), voters in slot.prepares.items():
            if vote_view == view and digest != accepted.digest and len(voters) >= weak:
                slot.equivocation_reported.add(view)
                self.context.report_misbehaviour("equivocation", self.primary_of(view))
                return

    def _send_commit(self, slot: _Slot, view: ViewNr, digest: bytes) -> None:
        """A prepare quorum for the accepted proposal's digest: vote COMMIT."""
        if view in slot.commit_sent:
            return
        slot.commit_sent.add(view)
        slot.prepared_proof = PreparedProof(
            view=view, sn=slot.sn, digest=digest, value=slot.value
        )
        tracer = self.context.tracer
        if tracer is not None:
            tracer.on_sb(
                self.context.now(), self.context.node_id,
                self.context.segment.instance_id, slot.sn, "commit-vote",
            )
        self.context.broadcast(Commit(view=view, sn=slot.sn, digest=digest))

    def _on_commit(self, src: NodeId, message: Commit) -> None:
        slot = self._slots.get(message.sn)
        if slot is None or slot.committed:
            return
        key = (message.view, message.digest)
        voters = slot.commits.get(key)
        if voters is None:
            voters = slot.commits[key] = set()
        voters.add(src)
        if len(voters) < self._quorum:
            return
        if slot.preprepare is None or slot.preprepare.digest != message.digest:
            return
        self._commit_slot(slot)

    def _commit_slot(self, slot: _Slot) -> None:
        slot.committed = True
        # Later votes for the slot are dropped on arrival: free the tallies.
        slot.prepares.clear()
        slot.commits.clear()
        self._uncommitted -= 1
        value = slot.value if slot.value is not None else NIL
        digest = slot.decided_digest = value.digest()
        proof = slot.prepared_proof
        if proof is not None and proof.digest == digest == proof.value.digest():
            # The proof of the decided value is rebuilt from the log when a
            # view change asks for it.  A proof of anything else (a value
            # this node prepared but did not decide) is kept as it is.
            slot.decided_view = proof.view
            slot.prepared_proof = None
        slot.preprepare = None
        slot.value = None
        tracer = self.context.tracer
        if tracer is not None:
            tracer.on_sb(
                self.context.now(), self.context.node_id,
                self.context.segment.instance_id, slot.sn, "decided",
            )
        self.context.deliver(slot.sn, value)
        # Progress resets the view-change backoff (standard PBFT rule): a
        # commit proves the current configuration is live, so later stalls
        # start from the base timeout instead of one inflated by view
        # changes during a past outage.
        self._view_timeout = self._base_view_timeout
        if self._all_committed():
            if self._view_timer is not None:
                self._view_timer.cancel()
        else:
            # Progress was made: reset the single per-instance timer.
            self._arm_view_timer()

    # ---------------------------------------------------------- view change
    def _arm_view_timer(self) -> None:
        if self._stopped or self._all_committed():
            return
        if self._view_timer is not None:
            self._view_timer.cancel()
        # The seeded jitter desynchronises simultaneous stalls across nodes.
        self._view_timer = self.context.schedule(
            self._view_timeout * self.context.timeout_jitter(), self._on_view_timeout
        )

    def _on_view_timeout(self) -> None:
        if self._stopped or self._all_committed():
            return
        # While a view change is already in progress, each further timeout
        # targets the next view (standard PBFT liveness rule).
        self._start_view_change(max(self.view, self._highest_vc_sent) + 1)

    def nudge(self) -> None:
        """Partition healed: demand a view change immediately at base backoff.

        The new view's NEW-VIEW message re-announces decided values and
        committed peers re-affirm them (see :meth:`_on_new_view`), which is
        what lets a node that missed whole agreement rounds while cut off
        complete its log without waiting for a stable checkpoint.
        """
        if self._stopped or self._all_committed():
            return
        self._view_timeout = self._base_view_timeout
        self._start_view_change(max(self.view, self._highest_vc_sent) + 1)

    def _start_view_change(self, new_view: ViewNr) -> None:
        if new_view <= self._highest_vc_sent:
            return
        self._highest_vc_sent = new_view
        # Committed slots stay in the proof set (committed implies prepared,
        # textbook PBFT): a new primary that missed a commit round must
        # still learn the decided value from the view-change quorum, or it
        # would re-propose ⊥ against a value the rest already delivered.
        prepared = tuple(
            proof
            for proof in map(self._proof_of, self._slots.values())
            if proof is not None
        )
        message = ViewChange(new_view=new_view, prepared=prepared)
        self.context.broadcast(message)
        # Exponential backoff on the timeout so view changes stop after GST.
        self._view_timeout *= 2
        self._arm_view_timer()

    def _proof_of(self, slot: _Slot) -> Optional[PreparedProof]:
        """The slot's prepared proof, rebuilt for a decided value."""
        if slot.decided_view is None:
            return slot.prepared_proof
        return PreparedProof(
            view=slot.decided_view,
            sn=slot.sn,
            digest=slot.decided_digest,
            value=self.context.decided_value(slot.sn),
        )

    def _on_view_change(self, src: NodeId, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        votes = self._view_changes.setdefault(message.new_view, {})
        votes[src] = message
        # Join a view change once f+1 nodes demand it (standard liveness rule).
        if len(votes) >= self.context.weak_quorum and self.context.node_id not in votes:
            self._start_view_change(message.new_view)
        if (
            len(votes) >= self._quorum
            and self.primary_of(message.new_view) == self.context.node_id
            and message.new_view not in self._new_view_installed
        ):
            self._send_new_view(message.new_view, votes)

    def _send_new_view(self, new_view: ViewNr, votes: Dict[NodeId, ViewChange]) -> None:
        self._new_view_installed.add(new_view)
        preprepares: List[PrePrepare] = []
        for sn, slot in self._slots.items():
            if slot.committed:
                # Re-announce the decided value: a follower that missed the
                # commit round (lossy link, partition) has no other way to
                # learn it before a stable checkpoint exists — and the
                # checkpoint needs a quorum of *complete* logs first.
                value = self.context.decided_value(sn)
                preprepares.append(
                    PrePrepare(view=new_view, sn=sn, value=value, digest=value.digest())
                )
                continue
            best: Optional[PreparedProof] = None
            for vote in votes.values():
                for proof in vote.prepared:
                    if proof.sn != sn:
                        continue
                    if best is None or proof.view > best.view:
                        best = proof
            local = slot.prepared_proof
            if local is not None and (best is None or local.view > best.view):
                best = local
            if best is not None:
                preprepares.append(
                    PrePrepare(view=new_view, sn=sn, value=best.value, digest=best.digest)
                )
            else:
                preprepares.append(
                    PrePrepare(view=new_view, sn=sn, value=NIL, digest=NIL.digest())
                )
        self.context.broadcast(NewView(new_view=new_view, preprepares=tuple(preprepares)))

    def _on_new_view(self, src: NodeId, message: NewView) -> None:
        if message.new_view < self.view:
            return
        if src != self.primary_of(message.new_view):
            return
        self.view = message.new_view
        self.view_changes_completed += 1
        self.context.note_view_change()
        self._arm_view_timer()
        for preprepare in message.preprepares:
            slot = self._slots.get(preprepare.sn)
            if slot is None:
                continue
            if slot.committed:
                # Re-affirm the decided digest in the new view so followers
                # that missed the original commit round can assemble a
                # commit quorum (the primary's re-announced pre-prepare
                # gives them the value; these votes give them the proof).
                digest = slot.decided_digest
                if digest == preprepare.digest and message.new_view not in slot.commit_sent:
                    slot.commit_sent.add(message.new_view)
                    self.context.broadcast(
                        Commit(view=message.new_view, sn=slot.sn, digest=digest)
                    )
                continue
            # Install the new-view pre-prepare: ⊥ always allowed; a real
            # batch only if it matches a known prepared proof or passes
            # validation (it originated from the segment leader).
            if not is_nil(preprepare.value):
                known = slot.prepared_proof is not None and slot.prepared_proof.digest == preprepare.digest
                if not known and not self.context.validate_batch(preprepare.value):
                    continue
            slot.preprepare = preprepare
            slot.value = preprepare.value
            self._send_prepare(slot, message.new_view, preprepare.digest)
            # As in _on_preprepare: conflicting votes may already be here.
            self._maybe_detect_equivocation(slot)

    # -------------------------------------------------------------- queries
    def committed_count(self) -> int:
        return sum(1 for slot in self._slots.values() if slot.committed)


#: Message handlers by exact message class: one dict hit per vote.
_HANDLERS = {
    PrePrepare: PbftSB._on_preprepare,
    Prepare: PbftSB._on_prepare,
    Commit: PbftSB._on_commit,
    ViewChange: PbftSB._on_view_change,
    NewView: PbftSB._on_new_view,
}
