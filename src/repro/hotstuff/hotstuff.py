"""Chained HotStuff as a Sequenced Broadcast implementation (Section 4.2.2).

Each ISS segment runs its own HotStuff instance rooted at a fresh genesis
certificate.  Every segment sequence number corresponds to one block in the
chain; three *dummy* blocks are appended after the last real one so the
three-chain commit rule can "flush the pipeline" and every real block gets
decided (Figure 4).  Quorum certificates aggregate strong-quorum votes with the
simulated threshold-signature scheme.

The segment leader leads every round; only when the pacemaker times out does
leadership rotate, and — per the SB design rules of Section 4.2 — any
non-initial leader proposes only ``⊥`` values (plus dummies), so the
instance delivers a batch or ``⊥`` for every sequence number.

HotStuff is latency-bound: a new block can only be proposed once the
previous block's certificate has been assembled, which is exactly the
behaviour the paper's evaluation discusses (Section 6.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.sb import SBContext, SBInstance
from ..core.types import Batch, LogEntry, NIL, NodeId, SeqNr, ViewNr, is_nil
from ..crypto.threshold import PartialSignature, ThresholdScheme
from ..runtime.api import Timer
from .messages import (
    Block,
    GENESIS_DIGEST,
    GENESIS_QC,
    NewRound,
    Proposal,
    QuorumCertificate,
    Vote,
)

#: Number of dummy blocks appended after the last real block (Figure 4).
PIPELINE_FLUSH_BLOCKS = 3


class HotStuffSB(SBInstance):
    """Chained-HotStuff engine scoped to a single segment."""

    def __init__(self, context: SBContext):
        super().__init__(context)
        if context.key_store is None:
            raise ValueError("HotStuffSB requires a key store for threshold signatures")
        self._threshold = ThresholdScheme(
            context.key_store, context.all_nodes, context.strong_quorum
        )
        #: All blocks seen, by digest (the genesis block is implicit).
        self._blocks: Dict[bytes, Block] = {}
        self._high_qc: QuorumCertificate = GENESIS_QC
        self._locked_qc: QuorumCertificate = GENESIS_QC
        self._committed: Set[bytes] = set()
        self._delivered_sns: Set[SeqNr] = set()
        self._last_voted_view: ViewNr = -1
        #: Highest view of any block received (≥ every peer's voted view in
        #: benign runs, since nodes only vote on blocks they received).  A
        #: round-change leader must propose *above* this: proposing at
        #: ``high_qc.view + 1`` alone can collide with the crashed leader's
        #: last (uncertified) block, which every node already voted for —
        #: those proposals die on the ``last_voted_view`` check and the view
        #: can never advance, wedging the segment.
        self._highest_seen_view: ViewNr = -1
        #: Vote shares collected by the (current) leader, per block digest.
        self._vote_shares: Dict[bytes, Dict[NodeId, PartialSignature]] = {}
        self._qc_formed: Set[bytes] = set()
        #: Pacemaker state.
        self._round = 0
        self._base_round_timeout = context.config.view_change_timeout
        self._round_timeout = context.config.view_change_timeout
        self._round_timer: Optional[Timer] = None
        self._new_round_msgs: Dict[int, Dict[NodeId, NewRound]] = {}
        self._proposing_active = context.is_leader
        self._awaiting_qc_digest: Optional[bytes] = None
        self._proposal_timer: Optional[Timer] = None
        #: Whether the one-shot final-QC publication already went out.
        self._final_qc_published = False
        self._stopped = False
        #: Statistics.
        self.rounds_changed = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        self._arm_round_timer()
        if self.context.is_leader:
            self._schedule_proposal()

    def stop(self) -> None:
        self._stopped = True
        for timer in (self._round_timer, self._proposal_timer):
            if timer is not None:
                timer.cancel()
        # Timers hold bound methods of this instance (see PbftSB.stop).
        self._round_timer = self._proposal_timer = None

    # ------------------------------------------------------------ utilities
    def round_leader(self, round_nr: int) -> NodeId:
        nodes = self.context.all_nodes
        base = nodes.index(self.context.segment.leader)
        return nodes[(base + round_nr) % len(nodes)]

    def _chain_from(self, digest: bytes) -> List[Block]:
        """Blocks from ``digest`` down to genesis (newest first)."""
        chain: List[Block] = []
        current = digest
        while current != GENESIS_DIGEST:
            block = self._blocks.get(current)
            if block is None:
                break
            chain.append(block)
            current = block.parent_digest
        return chain

    def _all_delivered(self) -> bool:
        return len(self._delivered_sns) == len(self.segment.seq_nrs)

    # -------------------------------------------------------- leader: propose
    def _schedule_proposal(self, delay: float = 0.0) -> None:
        if self._stopped or not self._proposing_active:
            return
        total_delay = delay + self.context.proposal_delay
        self._proposal_timer = self.context.schedule(total_delay, self._propose_next)

    def _propose_next(self) -> None:
        if self._stopped or not self._proposing_active:
            return
        if self._awaiting_qc_digest is not None:
            return  # the previous proposal has not been certified yet
        content = self._next_proposal_content()
        if content is None:
            return  # chain fully extended (real blocks + pipeline flush)
        sn, value = content
        if sn is not None and not self.context.may_propose(sn):
            self._proposing_active = False
            return
        parent_digest = self._high_qc.block_digest
        view = max(self._high_qc.view, self._highest_seen_view) + 1
        block = Block(
            view=view,
            round=self._round,
            sn=sn,
            value=value,
            parent_digest=parent_digest,
            justify=self._high_qc,
        )
        self._awaiting_qc_digest = block.digest()
        self.context.broadcast(Proposal(block=block))

    def _next_proposal_content(self) -> Optional[Tuple[Optional[SeqNr], LogEntry]]:
        """Pick the next block's (sequence number, value), or None when done.

        Real sequence numbers come first (those not committed and not already
        assigned in the chain ending at the high QC); afterwards dummy blocks
        are appended until the chain head is followed by three of them.
        """
        chain = self._chain_from(self._high_qc.block_digest)
        assigned = {block.sn for block in chain if block.sn is not None}
        assigned |= self._delivered_sns
        remaining = [sn for sn in self.segment.seq_nrs if sn not in assigned]
        if remaining:
            sn = remaining[0]
            if self.context.node_id == self.context.segment.leader and self._round == 0:
                batch = self.context.cut_batch(sn)
                return sn, batch
            # After any leader change, even the segment leader proposes only ⊥
            # (SB design rule 2 in Section 4.2).
            return sn, NIL
        trailing_dummies = 0
        for block in chain:  # newest first
            if block.sn is None:
                trailing_dummies += 1
            else:
                break
        if trailing_dummies < PIPELINE_FLUSH_BLOCKS or not self._all_delivered():
            # Keep extending with dummies until the flush completes AND every
            # sequence number has actually delivered.  A round-change leader
            # can inherit a chain that already ends in three dummies from the
            # crashed leader's flush whose final QCs never formed; without
            # the delivery check it would declare the chain fully extended
            # and the segment would wedge one QC short of committing.
            return None, NIL
        return None

    # ----------------------------------------------------------- proposals
    def handle_message(self, src: NodeId, message: object) -> None:
        if self._stopped:
            return
        if isinstance(message, Proposal):
            self._on_proposal(src, message.block)
        elif isinstance(message, Vote):
            self._on_vote(src, message)
        elif isinstance(message, NewRound):
            self._on_new_round(src, message)

    def _on_proposal(self, src: NodeId, block: Block) -> None:
        if block.round < self._round:
            return
        if src != self.round_leader(block.round):
            return
        if block.round > self._round:
            # The pacemaker advanced without us noticing every NewRound; adopt.
            self._round = block.round
        digest = block.digest()
        self._blocks[digest] = block
        if block.view > self._highest_seen_view:
            self._highest_seen_view = block.view
        self._process_qc(block.justify)
        if not self._validate_block(src, block):
            return
        if block.view <= self._last_voted_view:
            return
        if not self._safe_to_vote(block):
            return
        self._last_voted_view = block.view
        tracer = self.context.tracer
        if tracer is not None and block.sn is not None:
            tracer.on_sb(
                self.context.now(), self.context.node_id,
                self.context.segment.instance_id, block.sn, "vote",
            )
        partial = self._threshold.sign_share(self.context.node_id, digest)
        vote = Vote(view=block.view, block_digest=digest, partial=partial)
        # Votes go to the leader of the block's round (stable leader while the
        # pacemaker is quiet), who aggregates them into the next QC.
        self.context.send(self.round_leader(block.round), vote)
        self._arm_round_timer()

    def _validate_block(self, src: NodeId, block: Block) -> bool:
        if block.parent_digest != block.justify.block_digest:
            return False
        if block.sn is not None:
            if block.sn not in self.segment.seq_nrs:
                return False
            if block.sn in self._delivered_sns:
                return False
            # The same sequence number must not already occur in the ancestors.
            for ancestor in self._chain_from(block.parent_digest):
                if ancestor.sn == block.sn:
                    return False
        if not is_nil(block.value) and block.value is not None:
            if block.sn is None:
                return False
            if src != self.context.segment.leader:
                return False  # only the segment leader proposes real batches
            if not isinstance(block.value, Batch):
                return False
            if not self.context.validate_batch(block.value):
                return False
        return True

    def _safe_to_vote(self, block: Block) -> bool:
        """HotStuff safety rule: extend the locked block or see a newer QC."""
        if block.justify.view > self._locked_qc.view:
            return True
        locked_digest = self._locked_qc.block_digest
        for ancestor in self._chain_from(block.parent_digest):
            if ancestor.digest() == locked_digest:
                return True
        return locked_digest == GENESIS_DIGEST or block.parent_digest == locked_digest

    # ----------------------------------------------------------------- votes
    def _on_vote(self, src: NodeId, vote: Vote) -> None:
        if vote.block_digest in self._qc_formed:
            return
        if not self._threshold.verify_share(vote.partial):
            # Forged partial signature: reject and let the host count it.
            self.context.report_misbehaviour("invalid-signature", src)
            return
        shares = self._vote_shares.setdefault(vote.block_digest, {})
        shares[src] = vote.partial
        if len(shares) < self.context.strong_quorum:
            return
        block = self._blocks.get(vote.block_digest)
        if block is None:
            return
        combined = self._threshold.combine(shares.values())
        qc = QuorumCertificate(view=block.view, block_digest=vote.block_digest, signature=combined)
        self._qc_formed.add(vote.block_digest)
        if self._awaiting_qc_digest == vote.block_digest:
            self._awaiting_qc_digest = None
        self._process_qc(qc)
        # Latency-bound pipeline: the next proposal follows the fresh QC.  If
        # there is nothing to batch yet, wait min_batch_timeout before
        # proposing (an empty or dummy block) to avoid spinning at line rate.
        delay = 0.0
        if (
            self.context.pending_requests() == 0
            and self.context.config.min_batch_timeout > 0
            and not self._all_delivered()
        ):
            delay = self.context.config.min_batch_timeout
        self._schedule_proposal(delay)

    # ------------------------------------------------------------------ QCs
    def _process_qc(self, qc: QuorumCertificate) -> None:
        """The chained-HotStuff ``update`` procedure (pre-commit/commit/decide)."""
        if qc.block_digest == GENESIS_DIGEST:
            return
        if qc.signature is not None and not self._threshold.verify(qc.signature, qc.block_digest):
            return
        if qc.view > self._high_qc.view:
            self._high_qc = qc
        b2 = self._blocks.get(qc.block_digest)
        if b2 is None:
            return
        if b2.justify.view > self._locked_qc.view:
            self._locked_qc = b2.justify
        b1 = self._blocks.get(b2.parent_digest)
        if b1 is None:
            return
        b0 = self._blocks.get(b1.parent_digest)
        if b0 is None:
            return
        if b2.view == b1.view + 1 and b1.view == b0.view + 1:
            self._commit(b0)

    def _commit(self, block: Block) -> None:
        """Commit ``block`` and all its uncommitted ancestors, oldest first."""
        chain = self._chain_from(block.digest())
        for ancestor in reversed(chain):
            digest = ancestor.digest()
            if digest in self._committed:
                continue
            self._committed.add(digest)
            if ancestor.sn is not None and ancestor.sn not in self._delivered_sns:
                self._delivered_sns.add(ancestor.sn)
                value = ancestor.value if ancestor.value is not None else NIL
                tracer = self.context.tracer
                if tracer is not None:
                    tracer.on_sb(
                        self.context.now(), self.context.node_id,
                        self.context.segment.instance_id, ancestor.sn, "decided",
                    )
                self.context.deliver(ancestor.sn, value)
        # Progress resets the pacemaker backoff: later stalls start from the
        # base timeout instead of one inflated during a past outage.
        self._round_timeout = self._base_round_timeout
        if self._all_delivered():
            if self._round_timer is not None:
                self._round_timer.cancel()
            if self._round > 0 and not self._final_qc_published:
                self._final_qc_published = True
                # Round changes happened, so the QC pipeline was disrupted:
                # followers of the silent pre-change leader can be one QC
                # short of committing the tail, and we leave the pacemaker
                # now (no more proposals will carry our QCs).  Publish the
                # final high QC once so everyone can close the three-chain.
                self.context.broadcast(
                    NewRound(round=self._round, high_qc=self._high_qc)
                )

    # ------------------------------------------------------------- pacemaker
    def _arm_round_timer(self) -> None:
        if self._stopped or self._all_delivered():
            return
        if self._round_timer is not None:
            self._round_timer.cancel()
        # The seeded jitter desynchronises simultaneous stalls across nodes.
        self._round_timer = self.context.schedule(
            self._round_timeout * self.context.timeout_jitter(), self._on_round_timeout
        )

    def _on_round_timeout(self) -> None:
        if self._stopped or self._all_delivered():
            return
        self._round += 1
        self.rounds_changed += 1
        self.context.note_view_change()
        self._round_timeout *= 2
        self._proposing_active = False
        self._awaiting_qc_digest = None
        message = NewRound(round=self._round, high_qc=self._high_qc)
        self.context.send(self.round_leader(self._round), message)
        self._arm_round_timer()

    def _on_new_round(self, src: NodeId, message: NewRound) -> None:
        # Learn the carried QC first, independent of round bookkeeping: a
        # NewRound may be the only vehicle that brings a lagging node the
        # final QC of a chain whose leader has gone silent.
        self._process_qc(message.high_qc)
        if self._all_delivered():
            # We finished this segment and left the pacemaker (our round
            # timer is cancelled, so we will never contribute to the
            # sender's NewRound quorum).  The sender is lagging — typically
            # one QC behind a leader that went silent after its own delivery
            # completed.  Hand it our high QC: processing it lets the sender
            # commit the tail through the three-chain rule and stop asking.
            # Only reply when the sender is actually behind — two finished
            # nodes must not echo at each other forever.
            if src != self.context.node_id and message.high_qc.view < self._high_qc.view:
                self.context.send(src, NewRound(round=message.round, high_qc=self._high_qc))
            return
        if message.round < self._round:
            return
        votes = self._new_round_msgs.setdefault(message.round, {})
        votes[src] = message
        if self.round_leader(message.round) != self.context.node_id:
            return
        if len(votes) >= self.context.strong_quorum and not self._proposing_active:
            self._round = max(self._round, message.round)
            self._proposing_active = True
            self._awaiting_qc_digest = None
            self._schedule_proposal()

    # -------------------------------------------------------------- queries
    def committed_count(self) -> int:
        return len(self._delivered_sns)
