"""Per-node durable storage facade: WAL plus snapshot store.

:class:`NodeStorage` is the single object an ISS node (and the recovery
path) talks to.  The node calls the narrow ``record_*`` hooks from its
commit, epoch and checkpoint paths; the storage appends to the WAL and,
at every stable checkpoint, compacts: the run of entries the checkpoint
newly covers is sealed into the append-only archive
(:class:`~repro.storage.snapshot.SnapshotStore`) and the WAL truncates
below the checkpoint (Section 3.4's garbage collection, made durable).

The object deliberately outlives the node: the harness keeps one
``NodeStorage`` per node id, hands it to every incarnation of that node,
and the :class:`~repro.storage.recovery.RecoveryManager` rebuilds a fresh
node from it after a crash.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.types import CheckpointCertificate, EpochNr, LogEntry, NodeId, SeqNr
from .snapshot import Snapshot, SnapshotStore
from .wal import WriteAheadLog


class NodeStorage:
    """Durable state of one node across crashes and restarts."""

    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        self.wal = WriteAheadLog()
        self.snapshots = SnapshotStore()
        #: Successful compactions (run sealed + WAL truncated).
        self.compactions = 0
        #: Stable checkpoints whose prefix was locally incomplete (the node
        #: heard 2f+1 votes before holding every entry); compaction is
        #: deferred until a later checkpoint covers the gap.
        self.deferred_compactions = 0

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

        Only the run above what is already sealed is assembled and handed
        to :meth:`SnapshotStore.seal` — everything below it was truncated
        out of the WAL at the previous compaction — so a checkpoint costs
        O(epoch), never O(total log).  The archive is made durable *before*
        the WAL drops the covered records: a crash between the two leaves
        the run in both places, which replay tolerates.

        A stable checkpoint can outrun the local log (2f+1 *peers* may vote
        before this node holds every entry of the epoch); in that case the
        run has gaps and compaction is deferred — the WAL keeps its
        records and a later checkpoint retries once state transfer has
        filled the holes.
        """
        last_sn = certificate.last_sn
        start = self.snapshots.entry_count()
        if last_sn < start:
            return
        delta: Dict[SeqNr, Tuple[LogEntry, EpochNr]] = {}
        for sn, entry, epoch in self.wal.commits():
            if start <= sn <= last_sn:
                delta[sn] = (entry, epoch)
        if len(delta) != last_sn - start + 1:
            self.deferred_compactions += 1
            return
        self.snapshots.seal(
            [(sn, *delta[sn]) for sn in range(start, last_sn + 1)], certificate
        )
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
        return self.snapshots.entry_count() + len(self.wal.commits())

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
