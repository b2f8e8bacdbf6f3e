"""Raft as a (crash-fault-tolerant) Sequenced Broadcast implementation.

Section 4.2.3 of the paper: the first leader of each instance is fixed to the
segment leader (the election phase is skipped), followers keep randomized
election timers, and — to preserve liveness under eventual synchrony — the
election-timer range doubles whenever a term passes without electing a
leader.  A leader elected after the segment leader's failure appends ``⊥``
entries for every sequence number it does not already hold, so the instance
terminates for all sequence numbers (SB3) even after a crash.

Raft's characteristic re-transmission behaviour is preserved: a leader keeps
re-sending entries from ``nextIndex`` until acknowledged, so short batch
timeouts on a high-latency WAN produce redundant proposals — the effect the
paper's evaluation attributes Raft's lower per-leader throughput to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.pacing import ProposalPacer
from ..core.sb import SBContext, SBInstance
from ..core.types import Batch, LogEntry, NIL, NodeId, SeqNr, is_nil
from ..runtime.api import Timer
from .messages import AppendEntries, AppendReply, RaftEntry, RequestVote, VoteReply

#: Roles a node can hold within one Raft instance.
FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


class RaftSB(SBInstance):
    """Raft engine scoped to a single segment (CFT: n >= 2f+1)."""

    def __init__(self, context: SBContext):
        super().__init__(context)
        self._rng = random.Random(
            context.config.random_seed * 1_000_003
            + context.node_id * 7919
            + context.segment.epoch * 104729
            + context.segment.leader
        )
        self.term = 0
        self.role = LEADER if context.is_leader else FOLLOWER
        self.voted_for: Dict[int, NodeId] = {}
        #: Replicated log of this instance (index 0 is the first entry).
        self.log: List[RaftEntry] = []
        self.commit_index = -1
        self._delivered: Set[SeqNr] = set()
        #: Leader volatile state.
        self._next_index: Dict[NodeId, int] = {}
        self._match_index: Dict[NodeId, int] = {}
        self._votes_received: Dict[int, Set[NodeId]] = {}
        #: Election timeout range (doubles when an election fails).
        self._election_range: Tuple[float, float] = context.config.election_timeout
        self._election_timer: Optional[Timer] = None
        self._heartbeat_timer: Optional[Timer] = None
        self._heartbeat_interval = max(0.5, context.config.election_timeout[0] / 5.0)
        self._pacer = ProposalPacer(context, self._leader_append)
        self._stopped = False
        self.elections_started = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self.role == LEADER:
            self._become_leader(initial=True)
        else:
            self._arm_election_timer()

    def stop(self) -> None:
        self._stopped = True
        self._pacer.stop()
        for timer in (self._election_timer, self._heartbeat_timer):
            if timer is not None:
                timer.cancel()
        # Timers hold bound methods of this instance (see PbftSB.stop).
        self._election_timer = self._heartbeat_timer = None

    # ------------------------------------------------------------ utilities
    @property
    def _majority(self) -> int:
        return self.context.num_nodes // 2 + 1

    def _last_log_index(self) -> int:
        return len(self.log) - 1

    def _last_log_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def _all_delivered(self) -> bool:
        return len(self._delivered) == len(self.segment.seq_nrs)

    def _remaining_sns(self) -> List[SeqNr]:
        """Segment sequence numbers not present in this node's Raft log."""
        present = {entry.sn for entry in self.log}
        return [sn for sn in self.segment.seq_nrs if sn not in present]

    # ------------------------------------------------------------ leadership
    def _become_leader(self, initial: bool = False) -> None:
        self.role = LEADER
        if self._election_timer is not None:
            self._election_timer.cancel()
        for node in self.context.all_nodes:
            self._next_index[node] = len(self.log)
            self._match_index[node] = -1
        self._match_index[self.context.node_id] = self._last_log_index()
        if initial:
            # The segment leader proposes real batches, paced by the batch rate.
            self._pacer.start()
        else:
            # A failover leader appends ⊥ for every missing sequence number
            # right away (SB design rule 2), then keeps heartbeating.
            for sn in self._remaining_sns():
                self.log.append(RaftEntry(term=self.term, sn=sn, value=NIL))
            self._match_index[self.context.node_id] = self._last_log_index()
        self._send_heartbeats()

    def _leader_append(self, sn: SeqNr, batch: Batch) -> None:
        """Pacer callback at the initial (segment) leader."""
        if self._stopped or self.role != LEADER:
            return
        tracer = self.context.tracer
        if tracer is not None:
            tracer.on_sb(
                self.context.now(), self.context.node_id,
                self.context.segment.instance_id, sn, "append",
            )
        self.log.append(RaftEntry(term=self.term, sn=sn, value=batch))
        self._match_index[self.context.node_id] = self._last_log_index()
        self._replicate_to_all()
        self._maybe_advance_commit()

    def _replicate_to_all(self) -> None:
        for node in self.context.all_nodes:
            if node != self.context.node_id:
                self._send_append(node)

    def _send_append(self, follower: NodeId) -> None:
        next_index = self._next_index.get(follower, 0)
        prev_index = next_index - 1
        prev_term = self.log[prev_index].term if 0 <= prev_index < len(self.log) else 0
        entries = tuple(self.log[next_index:])
        message = AppendEntries(
            term=self.term,
            prev_index=prev_index,
            prev_term=prev_term,
            entries=entries,
            leader_commit=self.commit_index,
        )
        self.context.send(follower, message)

    def _send_heartbeats(self) -> None:
        if self._stopped or self.role != LEADER:
            return
        self._replicate_to_all()
        self._heartbeat_timer = self.context.schedule(
            self._heartbeat_interval, self._send_heartbeats
        )

    # -------------------------------------------------------------- messages
    def handle_message(self, src: NodeId, message: object) -> None:
        if self._stopped:
            return
        if isinstance(message, AppendEntries):
            self._on_append(src, message)
        elif isinstance(message, AppendReply):
            self._on_append_reply(src, message)
        elif isinstance(message, RequestVote):
            self._on_request_vote(src, message)
        elif isinstance(message, VoteReply):
            self._on_vote_reply(src, message)

    # ------------------------------------------------------------- followers
    def _on_append(self, src: NodeId, message: AppendEntries) -> None:
        if message.term < self.term:
            self.context.send(src, AppendReply(term=self.term, success=False, match_index=-1))
            return
        if message.term > self.term or self.role == CANDIDATE:
            self.term = max(self.term, message.term)
            self.role = FOLLOWER
        self._arm_election_timer()
        # Consistency check on the previous entry.
        if message.prev_index >= 0:
            if message.prev_index >= len(self.log) or self.log[message.prev_index].term != message.prev_term:
                self.context.send(
                    src, AppendReply(term=self.term, success=False, match_index=self._last_log_index())
                )
                return
        # Validate and append the new entries.
        insert_at = message.prev_index + 1
        for offset, entry in enumerate(message.entries):
            index = insert_at + offset
            if index < len(self.log):
                if self.log[index].term != entry.term:
                    del self.log[index:]
                else:
                    continue
            if not self._validate_entry(src, entry):
                self.context.send(
                    src, AppendReply(term=self.term, success=False, match_index=self._last_log_index())
                )
                return
            self.log.append(entry)
        if message.leader_commit > self.commit_index:
            self.commit_index = min(message.leader_commit, self._last_log_index())
            self._apply_committed()
        self.context.send(
            src, AppendReply(term=self.term, success=True, match_index=self._last_log_index())
        )

    def _validate_entry(self, src: NodeId, entry: RaftEntry) -> bool:
        if entry.sn not in self.segment.seq_nrs:
            return False
        if is_nil(entry.value):
            return True
        if src != self.context.segment.leader:
            return False
        if not isinstance(entry.value, Batch):
            return False
        return self.context.validate_batch(entry.value)

    def _apply_committed(self) -> None:
        for index in range(self.commit_index + 1):
            entry = self.log[index]
            if entry.sn in self._delivered:
                continue
            self._delivered.add(entry.sn)
            tracer = self.context.tracer
            if tracer is not None:
                tracer.on_sb(
                    self.context.now(), self.context.node_id,
                    self.context.segment.instance_id, entry.sn, "decided",
                )
            self.context.deliver(entry.sn, entry.value)
        if self._all_delivered() and self._election_timer is not None:
            self._election_timer.cancel()

    # ----------------------------------------------------------- leader acks
    def _on_append_reply(self, src: NodeId, message: AppendReply) -> None:
        if self.role != LEADER:
            return
        if message.term > self.term:
            self.term = message.term
            self.role = FOLLOWER
            self._arm_election_timer()
            return
        if message.success:
            self._match_index[src] = max(self._match_index.get(src, -1), message.match_index)
            self._next_index[src] = self._match_index[src] + 1
            self._maybe_advance_commit()
        else:
            # Back off and retry from an earlier index.
            self._next_index[src] = max(0, min(message.match_index + 1, self._next_index.get(src, 1) - 1))
            self._send_append(src)

    def _maybe_advance_commit(self) -> None:
        for index in range(self._last_log_index(), self.commit_index, -1):
            if self.log[index].term != self.term:
                continue
            acks = sum(1 for node in self.context.all_nodes if self._match_index.get(node, -1) >= index)
            if acks >= self._majority:
                self.commit_index = index
                self._apply_committed()
                self._replicate_to_all()  # propagate the new commit index
                break

    # -------------------------------------------------------------- elections
    def _arm_election_timer(self) -> None:
        if self._stopped or self._all_delivered():
            return
        if self._election_timer is not None:
            self._election_timer.cancel()
        low, high = self._election_range
        timeout = self._rng.uniform(low, high)
        self._election_timer = self.context.schedule(timeout, self._on_election_timeout)

    def _on_election_timeout(self) -> None:
        if self._stopped or self._all_delivered() or self.role == LEADER:
            return
        self.elections_started += 1
        self.term += 1
        self.role = CANDIDATE
        self.voted_for[self.term] = self.context.node_id
        self._votes_received[self.term] = {self.context.node_id}
        # Liveness under eventual synchrony: widen the election window each
        # time a term passes without a leader (Section 4.2.3).
        low, high = self._election_range
        self._election_range = (low * 2, high * 2)
        message = RequestVote(
            term=self.term,
            last_log_index=self._last_log_index(),
            last_log_term=self._last_log_term(),
        )
        self.context.broadcast(message, include_self=False)
        self._arm_election_timer()

    def _on_request_vote(self, src: NodeId, message: RequestVote) -> None:
        if message.term > self.term:
            self.term = message.term
            self.role = FOLLOWER
        granted = False
        if message.term == self.term and self.voted_for.get(self.term) in (None, src):
            up_to_date = (message.last_log_term, message.last_log_index) >= (
                self._last_log_term(),
                self._last_log_index(),
            )
            if up_to_date:
                granted = True
                self.voted_for[self.term] = src
                self._arm_election_timer()
        self.context.send(src, VoteReply(term=self.term, granted=granted))

    def _on_vote_reply(self, src: NodeId, message: VoteReply) -> None:
        if self.role != CANDIDATE or message.term != self.term:
            return
        if not message.granted:
            return
        votes = self._votes_received.setdefault(self.term, {self.context.node_id})
        votes.add(src)
        if len(votes) >= self._majority:
            self._become_leader(initial=False)

    # -------------------------------------------------------------- queries
    def committed_count(self) -> int:
        return len(self._delivered)
