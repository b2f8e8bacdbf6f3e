"""The replicated log maintained by every ISS node.

Each position holds either a committed batch or the ``⊥`` placeholder.  The
log exposes the two derived quantities ISS needs:

* contiguous delivery — a batch is *delivered* (handed to the application /
  client responses) once every lower position is filled (Algorithm 1,
  line 54), and
* per-request sequence numbers following Equation (2): the rank of the
  request across all non-``⊥`` entries delivered so far.

What is in memory: the committed entries not yet delivered with the ids of
their requests (a re-sent one is acknowledged only once delivered), and,
on a node with storage, the digests of the delivered ones not yet sealed.  A
delivered entry is already durable (the node fsyncs its WAL record before
delivery), so the log hands it to the storage and reads it back from
there on the rare paths that need a whole batch again: view change, state
transfer, recovery.  A node without storage keeps every entry resident.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .types import DeliveredRequest, EpochNr, LogEntry, NIL, RequestId, SeqNr, is_nil


@dataclass
class CommittedEntry:
    """A log entry together with the epoch it was committed in."""

    sn: SeqNr
    entry: LogEntry
    epoch: EpochNr


class Log:
    """Append-by-position log with contiguous delivery tracking.

    A long-running node does not hold its whole history: once an entry is
    delivered and durable, :meth:`evict_through` drops it from memory and
    every query below answers for it from the *archive* — any object with
    ``entry_at(sn)`` and ``entries_of(seq_nrs)`` (the node passes its
    storage in, which reads them back from its WAL).  The log keeps the 32-byte digest of each evicted
    position the archive has not sealed yet, so the epoch's checkpoint
    root and a repeated commit never read an entry back.  Callers cannot
    tell an evicted position from a resident one.
    """

    def __init__(self) -> None:
        self._entries: Dict[SeqNr, CommittedEntry] = {}
        self._first_undelivered: SeqNr = 0
        #: Total number of *requests* delivered so far (Equation 2 counter).
        self._total_delivered_requests = 0
        #: Positions ``0.._evicted_through`` live in ``_archive`` only.
        self._evicted_through: SeqNr = -1
        self._archive = None
        #: The ``⊥`` positions among the evicted ones, ascending (kept: they
        #: are ints).
        self._evicted_nils: List[SeqNr] = []
        #: Digests of the evicted positions above ``_sealed_through``.
        self._evicted_digests: Dict[SeqNr, bytes] = {}
        #: Highest position the archive has sealed, as last reported.
        self._sealed_through: SeqNr = -1
        #: Ids of the requests committed but not yet delivered in order.
        self._undelivered_rids: Set[RequestId] = set()

    # ------------------------------------------------------------ mutation
    def commit(self, sn: SeqNr, entry: LogEntry, epoch: EpochNr, now: float) -> bool:
        """Insert ``entry`` at position ``sn`` (``now``: the commit time;
        the log itself keeps no timestamps).

        Returns True if the position was previously empty.  Committing a
        different value to an already-filled position raises — that would be
        an agreement violation and should never survive silently.
        """
        existing = self._digest_at(sn)
        if existing is not None:
            if existing == entry.digest():
                return False
            raise ValueError(f"conflicting commit at sequence number {sn}")
        self._entries[sn] = CommittedEntry(sn=sn, entry=entry, epoch=epoch)
        if entry is not NIL:
            undelivered = self._undelivered_rids
            for request in entry.requests:
                undelivered.add(request.rid)
        return True

    def advance_delivery(self, now: float) -> List[DeliveredRequest]:
        """Deliver every contiguous newly-complete position.

        Returns the requests delivered in order, each with its global
        per-request sequence number from Equation (2).
        """
        delivered: List[DeliveredRequest] = []
        append = delivered.append
        entries = self._entries
        undelivered_discard = self._undelivered_rids.discard
        next_request_sn = self._total_delivered_requests
        while True:
            committed = entries.get(self._first_undelivered)
            if committed is None:
                break
            entry = committed.entry
            if entry is not NIL:
                batch_sn = committed.sn
                epoch = committed.epoch
                for request in entry.requests:
                    undelivered_discard(request.rid)
                    append(
                        DeliveredRequest(
                            request=request,
                            sn=next_request_sn,
                            batch_sn=batch_sn,
                            epoch=epoch,
                            delivered_at=now,
                        )
                    )
                    next_request_sn += 1
            self._first_undelivered += 1
        self._total_delivered_requests = next_request_sn
        return delivered

    def evict_through(self, sn: SeqNr, archive, sealed_through: SeqNr = -1) -> None:
        """Drop every *delivered* position at or below ``sn`` from memory.

        ``archive`` must hold all of them (``entry_at`` / ``entries_of``);
        it answers for them from now on.  Undelivered positions are never
        evicted — delivery reads them — so a bound beyond the delivered
        prefix is cut back to it.  ``sealed_through`` is the highest
        position ``archive`` has sealed: the digests of evicted positions
        up to it are dropped, the ones above it kept.
        """
        self._archive = archive
        digests = self._evicted_digests
        through = min(sn, self._first_undelivered - 1)
        if through > self._evicted_through:
            entries = self._entries
            for position in range(self._evicted_through + 1, through + 1):
                entry = entries.pop(position).entry
                if entry is NIL:
                    self._evicted_nils.append(position)
                if position > sealed_through:
                    digests[position] = _NIL_DIGEST if entry is NIL else entry.digest()
            self._evicted_through = through
        if sealed_through > self._sealed_through:
            for position in range(
                self._sealed_through + 1, min(sealed_through, self._evicted_through) + 1
            ):
                digests.pop(position, None)
            self._sealed_through = sealed_through

    # ------------------------------------------------------------- queries
    def entry(self, sn: SeqNr) -> Optional[LogEntry]:
        committed = self._entries.get(sn)
        if committed is not None:
            return committed.entry
        if 0 <= sn <= self._evicted_through:
            return self._archive.entry_at(sn)
        return None

    def _digest_at(self, sn: SeqNr) -> Optional[bytes]:
        """The digest of the entry at ``sn`` (``None`` when empty), read
        back only for a sealed evicted position."""
        committed = self._entries.get(sn)
        if committed is not None:
            return committed.entry.digest()
        if 0 <= sn <= self._evicted_through:
            digest = self._evicted_digests.get(sn)
            return digest if digest is not None else self._archive.entry_at(sn).digest()
        return None

    def awaits_delivery(self, rid: RequestId) -> bool:
        """True while a committed request waits for a lower position: it
        is not delivered in order yet, so no client may be told it is."""
        return rid in self._undelivered_rids

    def has_entry(self, sn: SeqNr) -> bool:
        return sn in self._entries or 0 <= sn <= self._evicted_through

    def holds_nil(self, sn: SeqNr) -> bool:
        """True when position ``sn`` committed ``⊥`` (never reads back)."""
        committed = self._entries.get(sn)
        if committed is not None:
            return committed.entry is NIL
        nils = self._evicted_nils
        index = bisect_left(nils, sn)
        return index < len(nils) and nils[index] == sn

    def is_complete(self, seq_nrs: Iterable[SeqNr]) -> bool:
        """True when every given position holds an entry."""
        entries = self._entries
        evicted = self._evicted_through
        return all(sn in entries or 0 <= sn <= evicted for sn in seq_nrs)

    def missing(self, seq_nrs: Iterable[SeqNr]) -> List[SeqNr]:
        return [sn for sn in seq_nrs if not self.has_entry(sn)]

    @property
    def first_undelivered(self) -> SeqNr:
        return self._first_undelivered

    @property
    def total_delivered_requests(self) -> int:
        return self._total_delivered_requests

    def highest_committed(self) -> Optional[SeqNr]:
        if self._entries:
            return max(self._entries)
        return self._evicted_through if self._evicted_through >= 0 else None

    def committed_count(self) -> int:
        return len(self._entries) + self._evicted_through + 1

    def resident_count(self) -> int:
        """Entries held in memory (``committed_count`` minus the evicted)."""
        return len(self._entries)

    def nil_positions(self) -> List[SeqNr]:
        """All positions that committed the ``⊥`` placeholder."""
        return self._evicted_nils + sorted(
            sn for sn, c in self._entries.items() if is_nil(c.entry)
        )

    def entries_in(self, seq_nrs: Iterable[SeqNr]) -> List[Tuple[SeqNr, LogEntry]]:
        present = [sn for sn in seq_nrs if self.has_entry(sn)]
        evicted = self._evicted_through
        cold = [sn for sn in present if sn <= evicted]
        archived = dict(self._archive.entries_of(cold)) if cold else {}
        entries = self._entries
        return [
            (sn, archived[sn] if sn <= evicted else entries[sn].entry)
            for sn in present
        ]

    def digests_in(self, seq_nrs: Iterable[SeqNr]) -> List[bytes]:
        """Entry digests for the given positions, in the given order.

        Used to compute the checkpoint Merkle root ``D(e)``.
        """
        seq_nrs = list(seq_nrs)
        missing = self.missing(seq_nrs)
        if missing:
            raise KeyError(f"no entry at sequence number {missing[0]}")
        entries = self._entries
        kept = self._evicted_digests
        sealed = [sn for sn in seq_nrs if sn not in entries and sn not in kept]
        archived = dict(self._archive.entries_of(sealed)) if sealed else {}
        return [
            entries[sn].entry.digest()
            if sn in entries
            else kept[sn] if sn in kept else archived[sn].digest()
            for sn in seq_nrs
        ]


#: Digest of the ``⊥`` placeholder (``Nil.digest`` hashes on every call).
_NIL_DIGEST = NIL.digest()
