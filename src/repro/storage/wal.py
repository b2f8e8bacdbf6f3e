"""The write-ahead log of one ISS node, and the frame format of its files.

The WAL is the append-only record of everything a node must not lose in a
crash: committed log entries (which double as per-segment Sequenced
Broadcast progress — one record per SB-DELIVER), stable checkpoint
certificates, and epoch starts.  It is deliberately *narrow*: protocol
volatile state (PBFT prepares, Raft terms, view numbers) is **not**
persisted; an uncommitted slot is re-learned from the peers after a restart.
Compaction follows Section 3.4: once a checkpoint is stable, everything at
or below it moves into the sealed archive (:mod:`repro.storage.snapshot`)
and :meth:`WriteAheadLog.truncate_below` drops it, so ``wal.log`` only ever
holds the tail above the latest stable checkpoint.  Memory holds less: an
index of that tail (kind, epoch, sequence number and frame position per
record), with only the small records decoded; a committed batch is read
back from the file when asked for, so a replica can drop it once it is
delivered.

Both files of a node's disk, ``wal.log`` and the archive's ``snapshot.bin``,
are sequences of one frame — ``>II`` (payload length, CRC-32 of the payload)
and the :mod:`repro.runtime.codec` body of a :class:`WalRecord`, byte for
byte the encoding the record's batch has on the wire — written by
:func:`frame` and read by :func:`read_frames`.  Every WAL append is fsync'd
before it returns.  A crash mid-append leaves a *torn tail* — a short or
CRC-mismatching last frame — which opening drops and truncates; everything
before it is intact by construction.  Compaction copies frames, it never
re-encodes them: the archive receives the WAL's commit frames byte for byte,
and ``wal.log`` is replaced atomically with its surviving frames, at
O(tail).  A CRC-valid frame of another codec version was
written by another version of the program, not torn by a crash: opening
raises :class:`StorageFormatError` and truncates nothing.

What a reader of a *running* replica's directory may assume (the audit in
:mod:`repro.net.deploy` relies on it): every CRC-valid commit frame in
either file is a commit the replica made durable; ``snapshot.bin`` only
grows, and a record leaves ``wal.log`` only after the archive holding it was
fsync'd — so reading ``wal.log`` first and ``snapshot.bin`` second never
misses an entry, while the opposite order can.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..core.types import LOG_ENTRY, CheckpointCertificate, EpochNr, LogEntry, SeqNr
from ..runtime.codec import (
    CODEC_VERSION,
    INT,
    STR,
    CodecError,
    decode,
    encode_into,
    nested,
    optional,
    register,
    tuple_of,
)
from .disk import Disk

#: Record kinds stored in the WAL.
RECORD_COMMIT = "commit"
RECORD_CHECKPOINT = "checkpoint"
RECORD_EPOCH_START = "epoch-start"
RECORD_MEMBERSHIP = "membership"

#: The WAL's file name on a node's disk.
WAL_FILENAME = "wal.log"

#: Frame header of one record: payload length, CRC-32 of the payload.
_FRAME_HEADER = struct.Struct(">II")

#: First payload byte of every frame the releases before the codec wrote;
#: never a codec version.
_PRE_CODEC_BYTE = 0x80


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


def checkpoint_record(certificate: CheckpointCertificate) -> WalRecord:
    """The record of a stable checkpoint (in the archive: a seal marker)."""
    return WalRecord(
        kind=RECORD_CHECKPOINT,
        epoch=certificate.epoch,
        sn=certificate.last_sn,
        certificate=certificate,
    )


class StorageFormatError(ValueError):
    """A data directory written in a format this version does not read."""


def frame(record: WalRecord) -> bytearray:
    """Serialise one record into its on-disk frame."""
    out = bytearray(_FRAME_HEADER.size)
    encode_into(out, record)
    payload = memoryview(out)[_FRAME_HEADER.size:]
    _FRAME_HEADER.pack_into(out, 0, len(payload), zlib.crc32(payload))
    payload.release()
    return out


def _refuse_foreign(disk: Disk, name: str, offset: int, payload: bytes) -> None:
    """Raise :class:`StorageFormatError` for an intact frame of another codec
    version (see the module docstring).  An empty payload is no version at
    all: a zero-filled tail reads as a CRC-valid empty frame, and is torn."""
    if not payload or payload[0] == CODEC_VERSION:
        return
    where = f"{name} on {disk!r} (frame at offset {offset})"
    if payload[0] == _PRE_CODEC_BYTE:
        raise StorageFormatError(
            f"{where} was written by a release before the codec; this version "
            f"reads codec version {CODEC_VERSION} only.  Start the node from an "
            f"empty data directory."
        )
    raise StorageFormatError(
        f"{where} holds codec version {payload[0]}, "
        f"this version reads {CODEC_VERSION} only"
    )


def read_frames(
    disk: Disk, name: str, offset: int = 0, skip: int = 0
) -> Iterator[Tuple[WalRecord, int]]:
    """Stream ``(record, end offset)`` from file ``name``, one frame in memory
    at a time, stopping at the first frame that is short, fails its CRC or
    is no :class:`WalRecord` (what a crash mid-append leaves); an intact frame
    of another codec version raises :class:`StorageFormatError`.  The first
    ``skip`` frames, already validated by an earlier scan, are stepped over
    undecoded.  Only bytes present when the scan starts are read, so it is
    safe on a file another process is appending to.
    """
    total = disk.size(name)
    if offset + _FRAME_HEADER.size > total:
        return
    with disk.read(name, offset) as stream:
        while offset + _FRAME_HEADER.size <= total:
            header = stream.read(_FRAME_HEADER.size)
            if len(header) != _FRAME_HEADER.size:
                return
            length, crc = _FRAME_HEADER.unpack(header)
            end = offset + _FRAME_HEADER.size + length
            if end > total:
                return
            payload = stream.read(length)
            if skip:
                skip -= 1
                offset = end
                continue
            if len(payload) != length or zlib.crc32(payload) != crc:
                return
            _refuse_foreign(disk, name, offset, payload)
            try:
                record = decode(payload)
            except CodecError:
                return
            if type(record) is not WalRecord:
                return
            offset = end
            yield record, offset


class _Indexed(NamedTuple):
    """One live WAL record: where its frame lies in the file, and what replay
    and compaction need without reading it back.  ``record`` is the decoded
    record of the small kinds; a commit's is ``None``, its batch stays on
    disk."""

    kind: str
    epoch: EpochNr
    sn: SeqNr
    offset: int
    length: int
    record: Optional[WalRecord]


class WriteAheadLog:
    """Append-only, truncatable record log in one file of a node's disk.

    Memory holds an index, not the records: per record its kind, epoch,
    sequence number and frame position, plus the decoded record of the
    small kinds (checkpoint, epoch start, membership).  A commit's batch is
    read back from the file on demand (:meth:`entry_at`, :meth:`records`).
    Opening indexes every intact record (the tail above the latest stable
    checkpoint) and truncates a torn tail left by a crash mid-append.
    """

    def __init__(self, disk: Disk, name: str = WAL_FILENAME):
        self.disk = disk
        self.name = name
        self._index: List[_Indexed] = []
        #: The live commit of each sequence number.
        self._commits: Dict[SeqNr, _Indexed] = {}
        #: Records appended through this object (replayed ones do not count).
        self.appended_total = 0
        #: Records dropped by compaction so far.
        self.truncated_total = 0
        self._end = 0
        for record, end in read_frames(disk, name):
            self._note(record, self._end, end - self._end)
            self._end = end
        #: Whether opening found (and truncated) a torn tail.
        self.torn_tail_detected = self._end < disk.size(name)
        if self.torn_tail_detected:
            disk.truncate(name, self._end)

    def __len__(self) -> int:
        return len(self._index)

    def _note(self, record: WalRecord, offset: int, length: int) -> None:
        """Index ``record``, whose frame is file bytes ``[offset, offset + length)``."""
        small = None if record.kind == RECORD_COMMIT else record
        self._add(_Indexed(record.kind, record.epoch, record.sn, offset, length, small))

    def _add(self, slot: _Indexed) -> None:
        self._index.append(slot)
        if slot.kind == RECORD_COMMIT:
            self._commits[slot.sn] = slot

    # -------------------------------------------------------------- appends
    def append_commit(self, sn: SeqNr, entry: LogEntry, epoch: EpochNr) -> None:
        """Persist one committed log entry (called on every SB-DELIVER)."""
        self._append(WalRecord(kind=RECORD_COMMIT, epoch=epoch, sn=sn, entry=entry))

    def append_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """Persist a stable checkpoint certificate."""
        self._append(checkpoint_record(certificate))

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
        """Write the record's frame and fsync it before returning."""
        data = frame(record)
        self.disk.append(self.name, data)
        self.disk.fsync(self.name)
        self._note(record, self._end, len(data))
        self._end += len(data)
        self.appended_total += 1

    # ------------------------------------------------------------- read-back
    def _frame(self, slot: _Indexed) -> bytes:
        """The frame of ``slot``, read back and checked against its CRC."""
        data = self.disk.read_at(self.name, slot.offset, slot.length)
        if len(data) != slot.length or zlib.crc32(
            memoryview(data)[_FRAME_HEADER.size:]
        ) != _FRAME_HEADER.unpack_from(data)[1]:
            raise OSError(
                f"{self.name} on {self.disk!r}: the frame at offset "
                f"{slot.offset} changed since it was written"
            )
        return data

    def entry_at(self, sn: SeqNr) -> LogEntry:
        """The committed entry at ``sn``, read back from the file."""
        slot = self._commits.get(sn)
        if slot is None:
            raise KeyError(f"sequence number {sn} has no commit in the WAL")
        return decode(self._frame(slot), _FRAME_HEADER.size).entry

    def commit_frames(
        self, first: SeqNr, last: SeqNr
    ) -> Optional[Iterator[Tuple[SeqNr, bytes]]]:
        """``(sn, frame)`` of every commit in ``[first, last]``, in ``sn``
        order, read one frame at a time; ``None`` when one is missing."""
        commits = self._commits
        if any(sn not in commits for sn in range(first, last + 1)):
            return None
        return ((sn, self._frame(commits[sn])) for sn in range(first, last + 1))

    # ------------------------------------------------------------ compaction
    def truncate_below(self, sn_bound: SeqNr, epoch_bound: EpochNr) -> int:
        """Drop records covered by a stable checkpoint; return how many.

        Commits with ``sn < sn_bound`` are now part of the sealed archive;
        checkpoint and epoch-start records for epochs ``< epoch_bound``
        are anchored by the (newer) archive certificate and equally
        redundant.  Records above the bounds survive — including commits
        that ran ahead of the checkpoint.  The file is replaced atomically
        with the survivors' frames, copied byte for byte.
        """
        kept = [
            slot
            for slot in self._index
            if (slot.sn >= sn_bound if slot.kind == RECORD_COMMIT else slot.epoch >= epoch_bound)
        ]
        dropped = len(self._index) - len(kept)
        if dropped:
            frames = [self._frame(slot) for slot in kept]
            self.disk.replace(self.name, b"".join(frames))
            self._index = []
            self._commits = {}
            offset = 0
            for slot, data in zip(kept, frames):
                self._add(slot._replace(offset=offset))
                offset += len(data)
            self._end = offset
        self.truncated_total += dropped
        return dropped

    # -------------------------------------------------------------- queries
    def records(self) -> Iterator[WalRecord]:
        """All live records in append order (the replay order), streamed
        from the file: it holds exactly the live records."""
        return (record for record, _end in read_frames(self.disk, self.name))

    def commits(self) -> List[Tuple[SeqNr, LogEntry, EpochNr]]:
        """The live commit records as ``(sn, entry, epoch)`` tuples."""
        return [
            (r.sn, r.entry, r.epoch)
            for r in self.records()
            if r.kind == RECORD_COMMIT
        ]

    def commit_count(self) -> int:
        """Number of live commit records."""
        return len(self._commits)

    def checkpoints(self) -> List[CheckpointCertificate]:
        """The live stable checkpoint certificates, in append order."""
        return [
            slot.record.certificate
            for slot in self._index
            if slot.kind == RECORD_CHECKPOINT
        ]

    def latest_epoch_started(self) -> Optional[EpochNr]:
        """The most recently recorded epoch start, if any survives."""
        for slot in reversed(self._index):
            if slot.kind == RECORD_EPOCH_START:
                return slot.epoch
        return None
