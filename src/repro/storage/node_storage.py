"""Per-node durable storage facade: one write-ahead log on one disk.

:class:`NodeStorage` is the single object an ISS node (and the recovery
path) talks to.  The node calls the narrow ``record_*`` hooks from its
commit, epoch and checkpoint paths, and the storage appends to the WAL; a
stable checkpoint appends its certificate and seals the run it closes
(Section 3.4's garbage collection, done in memory: see
:mod:`repro.storage.wal`).  It also answers for every durable position
(``entry_at`` / ``entries_of``), which is what lets the node's log drop an
entry from memory as soon as it is delivered
(:meth:`repro.core.iss.ISSNode.evict_delivered`).

What outlives a node is its disk (:mod:`repro.storage.disk`), not this
object: every incarnation opens a fresh ``NodeStorage`` on it, which repairs
crash damage, and :class:`~repro.storage.recovery.RecoveryManager` rebuilds
the node from that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..core.types import CheckpointCertificate, EpochNr, LogEntry, NodeId, SeqNr
from .disk import Disk
from .wal import WriteAheadLog


class NodeStorage:
    """Durable state of one node, opened from its disk."""

    def __init__(self, node_id: NodeId, disk: Disk):
        self.node_id = node_id
        self.disk = disk
        self.wal = WriteAheadLog(disk)

    def reopen(self) -> "NodeStorage":
        """Open the next incarnation's storage on the same disk.

        The fresh object carries this one's counters, so they count the
        appends and seals of the node id over its lifetime (replayed
        records are never appends).
        """
        fresh = NodeStorage(self.node_id, self.disk)
        fresh.wal.appended_total += self.wal.appended_total
        fresh.wal.seals_total += self.wal.seals_total
        fresh.wal.deferred_total += self.wal.deferred_total
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
        """Persist a stable checkpoint: one appended record, which seals the
        run below it once that run is whole."""
        self.wal.append_checkpoint(certificate)

    def record_membership(self, epoch: EpochNr, members: Tuple[NodeId, ...]) -> None:
        """Persist an activated membership view (audit trail; see
        :meth:`~repro.storage.wal.WriteAheadLog.append_membership`)."""
        self.wal.append_membership(epoch, members)

    # --------------------------------------------------------------- queries
    def has_state(self) -> bool:
        """True when storage holds anything to recover from."""
        return len(self.wal) > 0

    def sealed_count(self) -> int:
        """Sealed positions (``0..count-1``): the certified prefix."""
        return self.wal.sealed_count()

    def durable_entry_count(self) -> int:
        """Entries recoverable from storage (sealed plus unsealed)."""
        return self.wal.sealed_count() + self.wal.commit_count()

    def entry_at(self, sn: SeqNr) -> LogEntry:
        """The durable entry at ``sn``."""
        return self.wal.entry_at(sn)

    def entries_of(self, seq_nrs: Iterable[SeqNr]) -> List[Tuple[SeqNr, LogEntry]]:
        """``(sn, entry)`` for the given durable positions, in the given order."""
        return self.wal.entries_of(seq_nrs)

    def stats(self) -> Dict[str, int]:
        """Counters for reports and tests."""
        return {
            "wal_records": len(self.wal),
            "wal_appended_total": self.wal.appended_total,
            "sealed_entries": self.wal.sealed_count(),
            "seals": self.wal.seals_total,
            "deferred_seals": self.wal.deferred_total,
        }
