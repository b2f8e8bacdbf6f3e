"""The sealed archive: the checkpoint-certified prefix of the replicated log.

At every stable checkpoint the entries the checkpoint covers are *sealed*:
appended, in sequence-number order, to an archive that only ever grows, and
closed by the ``2f+1``-signed :class:`~repro.core.types.CheckpointCertificate`
that proves the prefix is the agreed one.  A seal costs what it covers — the
run of entries between the previous certificate and the new one — never the
history below it.  Because ISS's application state *is* the delivered log,
replaying the archive in order reconstructs the full node state (delivered
requests, watermarks, per-request sequence numbers) bit for bit.

The archive is also where old history is *read* from once a node has dropped
it from memory (:meth:`repro.core.log.Log.evict_through`): it answers
``entry_at(sn)`` / ``entries_of(seq_nrs)`` for every sealed position, which
is all the log needs to keep serving state transfer for old epochs.

:class:`SnapshotStore` is the simulator's backend: its "disk" is a plain
list.  The live backend's file-backed subclass
(:class:`repro.storage.durable.FileSnapshotStore`) keeps only the latest
certificate, the sealed count and a per-seal file offset in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.types import CheckpointCertificate, EpochNr, LogEntry, SeqNr

#: One sealed position: ``(sn, entry, epoch)``.
SealedEntry = Tuple[SeqNr, LogEntry, EpochNr]


@dataclass(frozen=True)
class Snapshot:
    """The anchor of the sealed prefix ``[0, last_sn]``: its latest certificate.

    The entries themselves stay in the archive (read them with
    :meth:`SnapshotStore.entries`); the store refuses to seal anything but a
    gap-free continuation, so the prefix can always be replayed blindly.
    """

    epoch: EpochNr
    last_sn: SeqNr
    certificate: CheckpointCertificate

    def __len__(self) -> int:
        return self.last_sn + 1


class SnapshotStore:
    """Append-only archive of one node's sealed log prefix (in-memory backed)."""

    def __init__(self) -> None:
        self._latest: Optional[Snapshot] = None
        self._entries: List[SealedEntry] = []
        #: Seals performed over the store's lifetime (for metrics).
        self.seals_total = 0

    # --------------------------------------------------------------- sealing
    def seal(
        self, delta: Sequence[SealedEntry], certificate: CheckpointCertificate
    ) -> None:
        """Seal ``delta`` — the run directly above what is already sealed.

        ``delta`` must cover ``[entry_count(), certificate.last_sn]``
        contiguously and in order; sealing a run with gaps (or one that does
        not start where the archive ends) would make recovery silently
        lossy, so it raises instead.
        """
        start = self.entry_count()
        if len(delta) != certificate.last_sn - start + 1 or any(
            sn != start + offset for offset, (sn, _entry, _epoch) in enumerate(delta)
        ):
            raise ValueError(
                f"sealed run must cover [{start}, {certificate.last_sn}] contiguously"
            )
        self._append(delta, certificate)
        self.seals_total += 1

    def _append(
        self, delta: Sequence[SealedEntry], certificate: CheckpointCertificate
    ) -> None:
        """Make one validated run durable and note its seal (backend hook)."""
        self._entries.extend(delta)
        self._note_seal(certificate)

    def _note_seal(self, certificate: CheckpointCertificate) -> None:
        """Advance the in-memory anchor over one sealed run."""
        self._latest = Snapshot(
            epoch=certificate.epoch,
            last_sn=certificate.last_sn,
            certificate=certificate,
        )

    # --------------------------------------------------------------- queries
    def latest(self) -> Optional[Snapshot]:
        """The anchor of the sealed prefix, or ``None`` before the first seal."""
        return self._latest

    def entry_count(self) -> int:
        """Number of sealed log entries (they are positions ``0..count-1``)."""
        return self._latest.last_sn + 1 if self._latest is not None else 0

    def entries(self, start: SeqNr = 0) -> Iterator[SealedEntry]:
        """Stream the sealed ``(sn, entry, epoch)`` triples from ``start`` up."""
        for position in range(start, self.entry_count()):
            yield self._entries[position]

    def entry_at(self, sn: SeqNr) -> LogEntry:
        """The sealed entry at position ``sn`` (which must be sealed)."""
        if not 0 <= sn < self.entry_count():
            raise KeyError(f"sequence number {sn} is not sealed")
        return self._entries[sn][1]

    def entries_of(self, seq_nrs: Iterable[SeqNr]) -> List[Tuple[SeqNr, LogEntry]]:
        """``(sn, entry)`` for the given sealed positions, in the given order."""
        return [(sn, self.entry_at(sn)) for sn in seq_nrs]
