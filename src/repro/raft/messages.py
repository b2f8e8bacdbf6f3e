"""Raft protocol messages (per Sequenced-Broadcast instance)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.types import LOG_ENTRY, LogEntry, SeqNr, is_nil
from ..runtime.codec import BOOL, INT, nested, register, tuple_of
from ..runtime.wire import register_batchable


@dataclass(frozen=True)
class RaftEntry:
    """One replicated log entry: a batch (or ⊥) destined for ISS position ``sn``."""

    term: int
    sn: SeqNr
    value: LogEntry

    def payload_size(self) -> int:
        if self.value is None or is_nil(self.value):
            return 1
        return self.value.size_bytes()


@dataclass(frozen=True)
class AppendEntries:
    """Leader → follower replication message (also the heartbeat when empty)."""

    term: int
    prev_index: int
    prev_term: int
    entries: Tuple[RaftEntry, ...]
    leader_commit: int

    def wire_size(self) -> int:
        return 64 + sum(24 + e.payload_size() for e in self.entries)


# Empty AppendEntries are pure heartbeats: small, periodic and latency-
# tolerant, so they may share a wire frame with replies and votes on the
# same link.  Entry-carrying AppendEntries stay unbatched — they are the
# replication critical path and their latency is the commit latency.
register_batchable(AppendEntries, predicate=lambda m: not m.entries)


@register_batchable
@dataclass(frozen=True)
class AppendReply:
    """Follower acknowledgement; ``match_index`` is the highest matching
    entry.  Batchable: replies for different instances travelling the same
    link within one flush tick share a wire frame."""

    term: int
    success: bool
    match_index: int

    def wire_size(self) -> int:
        return 48


@dataclass(frozen=True)
class RequestVote:
    """Candidate's vote solicitation."""

    term: int
    last_log_index: int
    last_log_term: int

    def wire_size(self) -> int:
        return 48


@register_batchable
@dataclass(frozen=True)
class VoteReply:
    """Response to a :class:`RequestVote` solicitation.  Batchable."""

    term: int
    granted: bool

    def wire_size(self) -> int:
        return 32


register(RaftEntry, 0x40, term=INT, sn=INT, value=LOG_ENTRY)
register(
    AppendEntries,
    0x41,
    term=INT,
    prev_index=INT,
    prev_term=INT,
    entries=tuple_of(nested(RaftEntry)),
    leader_commit=INT,
)
register(AppendReply, 0x42, term=INT, success=BOOL, match_index=INT)
register(RequestVote, 0x43, term=INT, last_log_index=INT, last_log_term=INT)
register(VoteReply, 0x44, term=INT, granted=BOOL)
