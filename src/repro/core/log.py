"""The replicated log maintained by every ISS node.

Each position holds either a committed batch or the ``⊥`` placeholder.  The
log exposes the two derived quantities ISS needs:

* contiguous delivery — a batch is *delivered* (handed to the application /
  client responses) once every lower position is filled (Algorithm 1,
  line 54), and
* per-request sequence numbers following Equation (2): the rank of the
  request across all non-``⊥`` entries delivered so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .types import DeliveredRequest, EpochNr, LogEntry, NIL, SeqNr, is_nil


@dataclass
class CommittedEntry:
    """A log entry together with the epoch it was committed in."""

    sn: SeqNr
    entry: LogEntry
    epoch: EpochNr


class Log:
    """Append-by-position log with contiguous delivery tracking.

    A long-running node does not hold its whole history: once a prefix is
    sealed in durable storage, :meth:`evict_through` drops it from memory
    and every query below answers for those positions from the *archive* —
    any object with ``entry_at(sn)`` and ``entries_of(seq_nrs)`` (the node
    passes its storage's sealed archive in).  Callers cannot tell an
    evicted position from a resident one.
    """

    def __init__(self) -> None:
        self._entries: Dict[SeqNr, CommittedEntry] = {}
        self._first_undelivered: SeqNr = 0
        #: Total number of *requests* delivered so far (Equation 2 counter).
        self._total_delivered_requests = 0
        #: Positions ``0.._evicted_through`` live in ``_archive`` only.
        self._evicted_through: SeqNr = -1
        self._archive = None
        #: The ``⊥`` positions among the evicted ones (kept: they are ints).
        self._evicted_nils: List[SeqNr] = []

    # ------------------------------------------------------------ mutation
    def commit(self, sn: SeqNr, entry: LogEntry, epoch: EpochNr, now: float) -> bool:
        """Insert ``entry`` at position ``sn`` (``now``: the commit time;
        the log itself keeps no timestamps).

        Returns True if the position was previously empty.  Committing a
        different value to an already-filled position raises — that would be
        an agreement violation and should never survive silently.
        """
        existing = self.entry(sn)
        if existing is not None:
            same_nil = is_nil(existing) and is_nil(entry)
            same_batch = (
                not is_nil(existing)
                and not is_nil(entry)
                and existing.digest() == entry.digest()
            )
            if same_nil or same_batch:
                return False
            raise ValueError(f"conflicting commit at sequence number {sn}")
        self._entries[sn] = CommittedEntry(sn=sn, entry=entry, epoch=epoch)
        return True

    def advance_delivery(self, now: float) -> List[DeliveredRequest]:
        """Deliver every contiguous newly-complete position.

        Returns the requests delivered in order, each with its global
        per-request sequence number from Equation (2).
        """
        delivered: List[DeliveredRequest] = []
        append = delivered.append
        entries = self._entries
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

    def evict_through(self, sn: SeqNr, archive) -> None:
        """Drop every *delivered* position at or below ``sn`` from memory.

        ``archive`` must hold all of them (``entry_at`` / ``entries_of``);
        it answers for them from now on.  Undelivered positions are never
        evicted — delivery reads them — so a bound beyond the delivered
        prefix is cut back to it.
        """
        through = min(sn, self._first_undelivered - 1)
        if through <= self._evicted_through:
            return
        entries = self._entries
        for position in range(self._evicted_through + 1, through + 1):
            if entries.pop(position).entry is NIL:
                self._evicted_nils.append(position)
        self._evicted_through = through
        self._archive = archive

    # ------------------------------------------------------------- queries
    def entry(self, sn: SeqNr) -> Optional[LogEntry]:
        committed = self._entries.get(sn)
        if committed is not None:
            return committed.entry
        if 0 <= sn <= self._evicted_through:
            return self._archive.entry_at(sn)
        return None

    def has_entry(self, sn: SeqNr) -> bool:
        return sn in self._entries or 0 <= sn <= self._evicted_through

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
        found = self.entries_in(seq_nrs)
        if len(found) != len(seq_nrs):
            raise KeyError(f"no entry at sequence number {self.missing(seq_nrs)[0]}")
        return [entry.digest() for _sn, entry in found]
