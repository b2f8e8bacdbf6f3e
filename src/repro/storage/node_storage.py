"""Per-node durable storage facade: WAL plus sealed archive on one disk.

:class:`NodeStorage` is the single object an ISS node (and the recovery
path) talks to.  The node calls the narrow ``record_*`` hooks from its
commit, epoch and checkpoint paths; the storage appends to the WAL and,
at every stable checkpoint, compacts: the run of entries the checkpoint
newly covers is sealed into the append-only archive
(:class:`~repro.storage.snapshot.SnapshotStore`) and the WAL truncates
below the checkpoint (Section 3.4's garbage collection, made durable).
It also answers for every durable position (``entry_at`` /
``entries_of``): sealed ones from the archive, the tail above them from
the WAL.  That is what lets the node's log drop an entry from memory as
soon as it is delivered (:meth:`repro.core.iss.ISSNode.evict_delivered`).

What outlives a node is its disk (:mod:`repro.storage.disk`), not this
object: every incarnation opens a fresh ``NodeStorage`` on it, which repairs
crash damage, and :class:`~repro.storage.recovery.RecoveryManager` rebuilds
the node from that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.types import CheckpointCertificate, EpochNr, LogEntry, NodeId, SeqNr
from .disk import Disk
from .snapshot import Snapshot, SnapshotStore
from .wal import WriteAheadLog


class NodeStorage:
    """Durable state of one node, opened from its disk."""

    def __init__(self, node_id: NodeId, disk: Disk):
        self.node_id = node_id
        self.disk = disk
        self.wal = WriteAheadLog(disk)
        self.snapshots = SnapshotStore(disk)
        #: Successful compactions (run sealed + WAL truncated).
        self.compactions = 0
        #: Stable checkpoints whose prefix was locally incomplete (the node
        #: heard a quorum of votes before holding every entry); compaction is
        #: deferred until a later checkpoint covers the gap.
        self.deferred_compactions = 0
        latest = self.snapshots.latest()
        if latest is not None:
            # A crash between the archive fsync and the WAL rewrite leaves
            # the sealed run in both files: finish that compaction.
            self.wal.truncate_below(latest.last_sn + 1, latest.epoch)

    def reopen(self) -> "NodeStorage":
        """Open the next incarnation's storage on the same disk.

        The fresh object carries this one's counters, so they count the
        appends, seals and compactions of the node id over its lifetime
        (replayed records are never appends).
        """
        fresh = NodeStorage(self.node_id, self.disk)
        fresh.wal.appended_total += self.wal.appended_total
        fresh.wal.truncated_total += self.wal.truncated_total
        fresh.snapshots.seals_total += self.snapshots.seals_total
        fresh.compactions += self.compactions
        fresh.deferred_compactions += self.deferred_compactions
        return fresh

    def close(self) -> None:
        """Release the disk's open files."""
        self.disk.close()

    # ------------------------------------------------------------- recording
    def record_commit(self, sn: SeqNr, entry: LogEntry, epoch: EpochNr) -> None:
        """Persist one committed log entry."""
        self.wal.append_commit(sn, entry, epoch)

    def record_epoch_start(self, epoch: EpochNr) -> None:
        """Persist an epoch transition."""
        self.wal.append_epoch_start(epoch)

    def record_stable_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """Persist a stable checkpoint and compact the WAL below it."""
        self.wal.append_checkpoint(certificate)
        self._compact(certificate)

    def record_membership(self, epoch: EpochNr, members: Tuple[NodeId, ...]) -> None:
        """Persist an activated membership view (audit trail; see
        :meth:`~repro.storage.wal.WriteAheadLog.append_membership`)."""
        self.wal.append_membership(epoch, members)

    # ------------------------------------------------------------ compaction
    def _compact(self, certificate: CheckpointCertificate) -> None:
        """Seal everything at or below ``certificate.last_sn`` into the archive.

        Only the run above what is already sealed is handed to
        :meth:`SnapshotStore.seal` — everything below it was truncated out
        of the WAL at the previous compaction — as the WAL's commit frames,
        copied one at a time, never re-encoded: a checkpoint moves O(epoch)
        bytes, never O(total log), and runs no codec.  The archive is made
        durable *before* the WAL drops the covered records: a crash between
        the two leaves the run in both places, which opening repairs.

        A stable checkpoint can outrun the local log (a quorum of *peers* may vote
        before this node holds every entry of the epoch); in that case the
        run has gaps and compaction is deferred — the WAL keeps its
        records and a later checkpoint retries once state transfer has
        filled the holes.
        """
        last_sn = certificate.last_sn
        start = self.snapshots.entry_count()
        if last_sn < start:
            return
        run = self.wal.commit_frames(start, last_sn)
        if run is None:
            self.deferred_compactions += 1
            return
        self.snapshots.seal(run, certificate)
        self.wal.truncate_below(last_sn + 1, certificate.epoch)
        self.compactions += 1

    # --------------------------------------------------------------- queries
    def latest_snapshot(self) -> Optional[Snapshot]:
        """The sealed prefix's anchor, or ``None`` before the first compaction."""
        return self.snapshots.latest()

    def has_state(self) -> bool:
        """True when storage holds anything to recover from."""
        return self.latest_snapshot() is not None or len(self.wal) > 0

    def durable_entry_count(self) -> int:
        """Entries recoverable from storage (sealed archive plus WAL tail)."""
        return self.snapshots.entry_count() + self.wal.commit_count()

    def entry_at(self, sn: SeqNr) -> LogEntry:
        """The durable entry at ``sn``: sealed positions from the archive,
        the tail above them from the WAL."""
        if sn < self.snapshots.entry_count():
            return self.snapshots.entry_at(sn)
        return self.wal.entry_at(sn)

    def entries_of(self, seq_nrs: Iterable[SeqNr]) -> List[Tuple[SeqNr, LogEntry]]:
        """``(sn, entry)`` for the given durable positions, in the given order."""
        wanted = list(seq_nrs)
        sealed_count = self.snapshots.entry_count()
        found = dict(self.snapshots.entries_of([sn for sn in wanted if sn < sealed_count]))
        return [
            (sn, found[sn] if sn < sealed_count else self.wal.entry_at(sn)) for sn in wanted
        ]

    def stats(self) -> Dict[str, int]:
        """Counters for reports and tests."""
        return {
            "wal_records": len(self.wal),
            "wal_appended_total": self.wal.appended_total,
            "wal_truncated_total": self.wal.truncated_total,
            "snapshot_entries": self.snapshots.entry_count(),
            "compactions": self.compactions,
            "deferred_compactions": self.deferred_compactions,
        }
