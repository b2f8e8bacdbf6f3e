"""The write-ahead log of one ISS node.

The WAL is the append-only record of everything a node must not lose in a
crash: committed log entries (which double as per-segment Sequenced
Broadcast progress — one record per SB-DELIVER), stable checkpoint
certificates, and epoch starts.  It is deliberately *narrow*: protocol
volatile state (PBFT prepares, Raft terms, view numbers) is **not**
persisted, matching real SMR deployments where an uncommitted slot is
simply re-learned from the peers after a restart.

Compaction follows Section 3.4: once a checkpoint is stable, everything at
or below its last sequence number moves into a snapshot
(:mod:`repro.storage.snapshot`) and :meth:`WriteAheadLog.truncate_below`
drops the covered records, so the WAL only ever holds the tail above the
latest stable checkpoint.

The log is backed by a plain in-memory list (the simulator has no disks)
and is strictly deterministic: appends happen in commit order, replay
iterates in append order, and nothing here touches the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..core.types import LOG_ENTRY, CheckpointCertificate, EpochNr, LogEntry, SeqNr
from ..runtime.codec import INT, STR, nested, optional, register, tuple_of

#: Record kinds stored in the WAL.
RECORD_COMMIT = "commit"
RECORD_CHECKPOINT = "checkpoint"
RECORD_EPOCH_START = "epoch-start"
RECORD_MEMBERSHIP = "membership"


@dataclass(frozen=True)
class WalRecord:
    """One append-only WAL record.

    ``kind`` selects which fields are meaningful: a ``commit`` carries
    ``(sn, entry, epoch)``, a ``checkpoint`` carries ``certificate``, an
    ``epoch-start`` carries only ``epoch``, and a ``membership`` carries
    the activated replica set in ``members`` (effective from ``epoch``).
    """

    kind: str
    epoch: EpochNr
    sn: SeqNr = -1
    entry: LogEntry = None
    certificate: Optional[CheckpointCertificate] = None
    members: Optional[Tuple[int, ...]] = None


register(
    WalRecord,
    0x70,
    kind=STR,
    epoch=INT,
    sn=INT,
    entry=LOG_ENTRY,
    certificate=optional(nested(CheckpointCertificate)),
    members=optional(tuple_of(INT)),
)


class WriteAheadLog:
    """Append-only, truncatable record log (in-memory backed)."""

    def __init__(self) -> None:
        self._records: List[WalRecord] = []
        #: Total records ever appended (survives truncation; for metrics).
        self.appended_total = 0
        #: Records dropped by compaction so far.
        self.truncated_total = 0

    def __len__(self) -> int:
        return len(self._records)

    # -------------------------------------------------------------- appends
    def append_commit(self, sn: SeqNr, entry: LogEntry, epoch: EpochNr) -> None:
        """Persist one committed log entry (called on every SB-DELIVER)."""
        self._append(WalRecord(kind=RECORD_COMMIT, epoch=epoch, sn=sn, entry=entry))

    def append_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """Persist a stable checkpoint certificate."""
        self._append(
            WalRecord(
                kind=RECORD_CHECKPOINT,
                epoch=certificate.epoch,
                sn=certificate.last_sn,
                certificate=certificate,
            )
        )

    def append_epoch_start(self, epoch: EpochNr) -> None:
        """Persist the fact that the node entered ``epoch``."""
        self._append(WalRecord(kind=RECORD_EPOCH_START, epoch=epoch))

    def append_membership(self, epoch: EpochNr, members: Tuple[int, ...]) -> None:
        """Persist an activated membership view (effective from ``epoch``).

        Strictly an audit record: membership is always *derived* from the
        committed ConfigTxs in the replayed log, so recovery never needs to
        read these back — but an operator inspecting a WAL sees every
        reconfiguration inline with the commits that caused it.
        """
        self._append(
            WalRecord(kind=RECORD_MEMBERSHIP, epoch=epoch, members=tuple(members))
        )

    def _append(self, record: WalRecord) -> None:
        self._records.append(record)
        self.appended_total += 1

    # ------------------------------------------------------------ compaction
    def truncate_below(self, sn_bound: SeqNr, epoch_bound: EpochNr) -> int:
        """Drop records covered by a stable checkpoint; return how many.

        Commits with ``sn < sn_bound`` are now part of the snapshot;
        checkpoint and epoch-start records for epochs ``< epoch_bound``
        are anchored by the (newer) snapshot certificate and equally
        redundant.  Records above the bounds survive — including commits
        that ran ahead of the checkpoint.
        """
        kept: List[WalRecord] = []
        for record in self._records:
            if record.kind == RECORD_COMMIT:
                redundant = record.sn < sn_bound
            else:
                redundant = record.epoch < epoch_bound
            if not redundant:
                kept.append(record)
        dropped = len(self._records) - len(kept)
        self._records = kept
        self.truncated_total += dropped
        return dropped

    # -------------------------------------------------------------- queries
    def records(self) -> Iterator[WalRecord]:
        """All live records in append order (the replay order)."""
        return iter(self._records)

    def commits(self) -> List[Tuple[SeqNr, LogEntry, EpochNr]]:
        """The live commit records as ``(sn, entry, epoch)`` tuples."""
        return [
            (r.sn, r.entry, r.epoch)
            for r in self._records
            if r.kind == RECORD_COMMIT
        ]

    def checkpoints(self) -> List[CheckpointCertificate]:
        """The live stable checkpoint certificates, in append order."""
        return [
            r.certificate for r in self._records if r.kind == RECORD_CHECKPOINT
        ]

    def latest_epoch_started(self) -> Optional[EpochNr]:
        """The most recently recorded epoch start, if any survives."""
        for record in reversed(self._records):
            if record.kind == RECORD_EPOCH_START:
                return record.epoch
        return None
