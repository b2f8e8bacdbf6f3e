"""The sealed archive: the checkpoint-certified prefix of the replicated log.

At every stable checkpoint the entries the checkpoint covers are *sealed*:
appended, in sequence-number order, to an archive that only ever grows, and
closed by the quorum-signed :class:`~repro.core.types.CheckpointCertificate`
that proves the prefix is the agreed one.  A seal costs what it covers — the
run of entries between the previous certificate and the new one — never the
history below it.  Because ISS's application state *is* the delivered log,
replaying the archive in order reconstructs the full node state (delivered
requests, watermarks, per-request sequence numbers) bit for bit.

The archive is also where old history is *read* from once a node has dropped
it from memory (:meth:`repro.core.log.Log.evict_through`): it answers
``entry_at(sn)`` / ``entries_of(seq_nrs)`` for every sealed position, which
is all the log needs to keep serving state transfer for old epochs.

On disk a sealed run is the run's commit frames (:mod:`repro.storage.wal`)
closed by its checkpoint frame, the *seal marker*.  Opening truncates what
follows the last seal marker (those records are still in the WAL); a
damaged frame in the *middle* ends the archive at the last seal before it,
and state transfer refetches the rest — never a log with a silent hole.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..core.types import CheckpointCertificate, EpochNr, LogEntry, SeqNr
from .disk import Disk
from .wal import RECORD_CHECKPOINT, RECORD_COMMIT, checkpoint_record, frame, read_frames

#: The archive's file name on a node's disk.
SNAPSHOT_FILENAME = "snapshot.bin"

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
    """Append-only archive of one node's sealed log prefix, in ``snapshot.bin``
    on its disk.  Memory holds the latest certificate and one ``(first sn,
    file offset)`` pair per sealed run, rebuilt on open by one scan."""

    def __init__(self, disk: Disk, name: str = SNAPSHOT_FILENAME):
        self.disk = disk
        self.name = name
        self._latest: Optional[Snapshot] = None
        #: First sequence number and file offset of each sealed run, in
        #: file order (parallel lists; the first is what lookups bisect).
        self._run_first_sn: List[SeqNr] = []
        self._run_offset: List[int] = []
        #: File offset right after the last seal marker (where appends go).
        self._end = 0
        #: Seals performed through this object (for metrics).
        self.seals_total = 0
        self._scan()
        #: Whether opening found (and truncated) bytes after the last seal.
        self.unsealed_tail_detected = self._end < disk.size(name)
        if self.unsealed_tail_detected:
            disk.truncate(name, self._end)

    def _scan(self) -> None:
        """Rebuild the anchors from the file.  A sealed run is consecutive
        commit records continuing the sealed prefix, closed by the
        certificate of their last position; the scan ends at anything else."""
        expected: SeqNr = 0
        for record, end in read_frames(self.disk, self.name):
            if record.kind == RECORD_COMMIT and record.sn == expected:
                expected += 1
            elif (
                record.kind == RECORD_CHECKPOINT
                and expected > self.entry_count()
                and record.certificate.last_sn == expected - 1
            ):
                self._note_run(end, record.certificate)
            else:
                break

    def _note_run(self, end: int, certificate: CheckpointCertificate) -> None:
        """Index the sealed run occupying file bytes ``[self._end, end)``."""
        self._run_first_sn.append(self.entry_count())
        self._run_offset.append(self._end)
        self._end = end
        self._latest = Snapshot(certificate.epoch, certificate.last_sn, certificate)

    # --------------------------------------------------------------- sealing
    def seal(
        self, run: Iterable[Tuple[SeqNr, bytes]], certificate: CheckpointCertificate
    ) -> None:
        """Seal ``run`` — the commit frames directly above what is sealed.

        ``run`` yields ``(sn, frame)`` pairs, each frame a CRC-checked commit
        frame copied from the WAL; they must cover ``[entry_count(),
        certificate.last_sn]`` contiguously and in order.  Sealing a run
        with gaps (or one that does not start where the archive ends)
        would make recovery silently lossy, so it raises instead.  The
        frames, unchanged and one at a time, and the seal marker are
        appended and fsync'd before this returns.
        """
        expected = start = self.entry_count()
        end = self._end
        try:
            for sn, data in run:
                if sn != expected:
                    break
                self.disk.append(self.name, data)
                end += len(data)
                expected += 1
            if expected != certificate.last_sn + 1 or expected == start:
                raise ValueError(
                    f"sealed run must cover [{start}, {certificate.last_sn}] contiguously"
                )
            marker = frame(checkpoint_record(certificate))
            self.disk.append(self.name, marker)
            self.disk.fsync(self.name)
        except BaseException:
            # A half-appended run must not stay in front of later seals.
            self.disk.truncate(self.name, self._end)
            raise
        self._note_run(end + len(marker), certificate)
        self.seals_total += 1

    # --------------------------------------------------------------- queries
    def latest(self) -> Optional[Snapshot]:
        """The anchor of the sealed prefix, or ``None`` before the first seal."""
        return self._latest

    def entry_count(self) -> int:
        """Number of sealed log entries (they are positions ``0..count-1``)."""
        return self._latest.last_sn + 1 if self._latest is not None else 0

    def entries(self, start: SeqNr = 0) -> Iterator[SealedEntry]:
        """Stream the sealed ``(sn, entry, epoch)`` triples from ``start`` up."""
        if not 0 <= start < self.entry_count():
            return
        run = bisect_right(self._run_first_sn, start) - 1
        # A sealed run holds consecutive positions, one frame each: the ones
        # below ``start`` need no decoding.
        skip = start - self._run_first_sn[run]
        for record, _end in read_frames(self.disk, self.name, self._run_offset[run], skip):
            if record.kind == RECORD_COMMIT:
                yield record.sn, record.entry, record.epoch

    def entry_at(self, sn: SeqNr) -> LogEntry:
        """The sealed entry at position ``sn`` (which must be sealed)."""
        for _sn, entry, _epoch in self.entries(sn):
            return entry
        raise KeyError(f"sequence number {sn} is not sealed")

    def entries_of(self, seq_nrs: Iterable[SeqNr]) -> List[Tuple[SeqNr, LogEntry]]:
        """``(sn, entry)`` for the given sealed positions, in the given order:
        one pass over the file from the run holding the lowest position."""
        wanted = list(seq_nrs)
        found = {}
        if wanted:
            last = max(wanted)
            for sn, entry, _epoch in self.entries(min(wanted)):
                found[sn] = entry
                if sn >= last:
                    break
        return [(sn, found[sn]) for sn in wanted]
