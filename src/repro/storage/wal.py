"""The write-ahead log of one ISS node: ``wal.log``, its one durable file.

The WAL is the append-only record of everything a node must not lose in a
crash: committed log entries (which double as per-segment Sequenced
Broadcast progress — one record per SB-DELIVER), stable checkpoint
certificates, epoch starts and activated membership views.  It is
deliberately *narrow*: protocol volatile state (PBFT prepares, Raft terms,
view numbers) is **not** persisted; an uncommitted slot is re-learned from
the peers after a restart.  Nothing in the file is ever rewritten: its only
writes are an append, fsync'd before it returns, and the truncation of a
torn tail on open.

Checkpoint garbage collection (Section 3.4) happens in memory.  A stable
checkpoint appends its certificate, and once every position at or below it
is in the file the certificate *seals* that run: the run's per-position
index slots make way for one anchor, the run's first position and the file
range its commit frames lie in.  While the run has holes (a quorum of peers
can vote before this node holds every entry of the epoch) sealing waits for
a later certificate.  A sealed position is read back by scanning its run's
range forward and stepping over the frames it does not want: the file is in
commit order, not sequence-number order, so a run's frames interleave with
the next epoch's and with later state-transfer fills.  An unsealed commit is
read back from its indexed frame.  Either way a batch stays on disk, so a
replica can drop it from memory once it is delivered.

The file is a sequence of frames — ``>II`` (payload length, CRC-32 of the
payload) and the :mod:`repro.runtime.codec` body of a :class:`WalRecord`,
byte for byte the encoding the record's batch has on the wire — written by
:func:`frame`.  Opening checks every frame's CRC and indexes each record
from the leading fields of its body (kind, epoch, sequence number) without
decoding its entry; recovery then decodes each record once, streaming the
file in append order (:meth:`WriteAheadLog.records`).  A crash mid-append
leaves a *torn tail* — a short or CRC-mismatching last frame — which
opening drops and truncates; everything before it is intact by
construction.  A CRC-valid frame of another codec version was written by
another version of the program, not torn by a crash: opening raises
:class:`StorageFormatError` and truncates nothing, and so does a disk that
still holds the sealed archive of the older two-file layout
(:data:`SNAPSHOT_FILENAME`).

A reader of a *running* replica's directory (the audit in
:mod:`repro.net.deploy`) may read ``wal.log`` at any time: it only grows,
and every CRC-valid commit frame in it is a commit the replica made durable.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

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

#: The WAL's file name on a node's disk: the node's one durable file.
WAL_FILENAME = "wal.log"

#: The sealed archive of the older two-file layout.  No file of that name is
#: written; a disk holding one is refused.
SNAPSHOT_FILENAME = "snapshot.bin"

#: Frame header of one record: payload length, CRC-32 of the payload.
_FRAME_HEADER = struct.Struct(">II")

#: First payload byte of every frame the releases before the codec wrote;
#: never a codec version.
_PRE_CODEC_BYTE = 0x80

#: The codec type tag of a :class:`WalRecord` body.
_RECORD_TAG = 0x70


@dataclass(frozen=True)
class WalRecord:
    """One append-only WAL record.

    ``kind`` selects which fields are meaningful: a ``commit`` carries
    ``(sn, entry, epoch)``, a ``checkpoint`` carries ``certificate`` (and
    its epoch and last position in ``epoch`` and ``sn``), an
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
    _RECORD_TAG,
    kind=STR,
    epoch=INT,
    sn=INT,
    entry=LOG_ENTRY,
    certificate=optional(nested(CheckpointCertificate)),
    members=optional(tuple_of(INT)),
)

#: The leading bytes of a :class:`WalRecord` body in the codec's layout:
#: version, type tag and the length of ``kind``; after ``kind`` come
#: ``epoch`` and ``sn``, the next fields of the schema above.
_BODY_HEAD = struct.Struct(">BBI")
_EPOCH_SN = struct.Struct(">qq")
_KINDS = {
    kind.encode(): kind
    for kind in (RECORD_COMMIT, RECORD_CHECKPOINT, RECORD_EPOCH_START, RECORD_MEMBERSHIP)
}


def checkpoint_record(certificate: CheckpointCertificate) -> WalRecord:
    """The record of a stable checkpoint."""
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


def _refuse_foreign(disk: Disk, offset: int, payload: bytes) -> None:
    """Raise :class:`StorageFormatError` for an intact frame of another codec
    version (see the module docstring).  An empty payload is no version at
    all: a zero-filled tail reads as a CRC-valid empty frame, and is torn."""
    if not payload or payload[0] == CODEC_VERSION:
        return
    where = f"{WAL_FILENAME} on {disk!r} (frame at offset {offset})"
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


def _payloads(
    disk: Disk, offset: int = 0, end: Optional[int] = None
) -> Iterator[Tuple[int, bytes]]:
    """Stream ``(frame offset, payload)`` of the frames of ``wal.log`` in
    ``[offset, end)``, one frame in memory at a time, stopping at the first
    frame that is short or fails its CRC (what a crash mid-append leaves);
    an intact frame of another codec version raises
    :class:`StorageFormatError`.  ``end`` defaults to the file's size when
    the scan starts, so a scan is safe on a file another process is
    appending to.
    """
    if end is None:
        end = disk.size(WAL_FILENAME)
    if offset + _FRAME_HEADER.size > end:
        return
    with disk.read(WAL_FILENAME, offset) as stream:
        while offset + _FRAME_HEADER.size <= end:
            header = stream.read(_FRAME_HEADER.size)
            if len(header) != _FRAME_HEADER.size:
                return
            length, crc = _FRAME_HEADER.unpack(header)
            if offset + _FRAME_HEADER.size + length > end:
                return
            payload = stream.read(length)
            if len(payload) != length or zlib.crc32(payload) != crc:
                return
            _refuse_foreign(disk, offset, payload)
            yield offset, payload
            offset += _FRAME_HEADER.size + length


def _head(payload: bytes) -> Optional[Tuple[str, EpochNr, SeqNr]]:
    """``(kind, epoch, sn)`` of a :class:`WalRecord` body, read from its
    leading fields without decoding the rest; ``None`` for a payload that is
    no such body."""
    if len(payload) < _BODY_HEAD.size:
        return None
    _version, tag, length = _BODY_HEAD.unpack_from(payload)
    start = _BODY_HEAD.size + length
    if tag != _RECORD_TAG or start + _EPOCH_SN.size > len(payload):
        return None
    kind = _KINDS.get(payload[_BODY_HEAD.size:start])
    if kind is None:
        return None
    epoch, sn = _EPOCH_SN.unpack_from(payload, start)
    return kind, epoch, sn


def read_frames(disk: Disk) -> Iterator[Tuple[WalRecord, int]]:
    """Stream ``(record, end offset)`` from ``wal.log``, each record decoded,
    stopping where :func:`_payloads` stops or at the first frame that is no
    :class:`WalRecord`."""
    for offset, payload in _payloads(disk):
        try:
            record = decode(payload)
        except CodecError:
            return
        if type(record) is not WalRecord:
            return
        yield record, offset + _FRAME_HEADER.size + len(payload)


class _Run(NamedTuple):
    """Where one sealed run lies in the file: ``[start, end)``, from the
    lowest of its commit frames to the checkpoint record that sealed it."""

    start: int
    end: int


class WriteAheadLog:
    """The append-only record log of one node: ``wal.log`` on its disk.

    Memory holds an index, not the records: the frame position of each
    commit above the sealed prefix, one :class:`_Run` per sealed run and the
    certificate of the latest seal.  A commit's batch is read back from the
    file on demand (:meth:`entry_at`, :meth:`entries_of`, :meth:`records`).
    Opening indexes every intact record, seals the runs their certificates
    sealed when they were appended, and truncates a torn tail left by a
    crash mid-append.
    """

    def __init__(self, disk: Disk):
        if disk.size(SNAPSHOT_FILENAME):
            raise StorageFormatError(
                f"{disk!r} holds {SNAPSHOT_FILENAME}, the sealed archive of an "
                f"older layout; this version keeps one file, {WAL_FILENAME}.  "
                f"Start the node from an empty data directory."
            )
        self.disk = disk
        #: ``(offset, length)`` of the commit frame of each unsealed position.
        self._commits: Dict[SeqNr, Tuple[int, int]] = {}
        #: One anchor per sealed run, in sealing order: its first position
        #: (what a lookup bisects) and its file range.
        self._runs: List[_Run] = []
        self._run_first: List[SeqNr] = []
        #: The certificate of the latest seal (``None`` before the first).
        self.sealed: Optional[CheckpointCertificate] = None
        self._records = 0
        #: Records appended, and checkpoints that sealed a run or found it
        #: incomplete, through this object (replayed ones do not count).
        self.appended_total = 0
        self.seals_total = 0
        self.deferred_total = 0
        self._end = 0
        for offset, payload in _payloads(disk):
            head = _head(payload)
            if head is None:
                break
            kind, _epoch, sn = head
            self._end = offset + _FRAME_HEADER.size + len(payload)
            self._records += 1
            if kind is RECORD_COMMIT:
                self._index_commit(sn, offset)
            elif kind is RECORD_CHECKPOINT and self._seal(sn, offset):
                self.sealed = decode(payload).certificate
        #: Whether opening found (and truncated) a torn tail.
        self.torn_tail_detected = self._end < disk.size(WAL_FILENAME)
        if self.torn_tail_detected:
            disk.truncate(WAL_FILENAME, self._end)

    def __len__(self) -> int:
        return self._records

    def sealed_count(self) -> int:
        """Number of sealed positions (they are ``0..count-1``)."""
        return self.sealed.last_sn + 1 if self.sealed is not None else 0

    def commit_count(self) -> int:
        """Number of unsealed positions with a commit record."""
        return len(self._commits)

    def _index_commit(self, sn: SeqNr, offset: int) -> None:
        """Index the commit of ``sn``, the frame from ``offset`` to the end
        of the file; a sealed position needs no slot."""
        if sn >= self.sealed_count():
            self._commits[sn] = (offset, self._end - offset)

    def _seal(self, last_sn: SeqNr, end: int) -> Optional[bool]:
        """Seal ``[sealed_count(), last_sn]`` when every position of it has a
        commit before file offset ``end``: its slots become one anchor.
        True when sealed, False when the run has a hole, ``None`` when the
        certificate covers nothing new."""
        first = self.sealed_count()
        if last_sn < first:
            return None
        commits = self._commits
        if any(sn not in commits for sn in range(first, last_sn + 1)):
            return False
        start = min(commits.pop(sn)[0] for sn in range(first, last_sn + 1))
        self._runs.append(_Run(start, end))
        self._run_first.append(first)
        return True

    # -------------------------------------------------------------- appends
    def append_commit(self, sn: SeqNr, entry: LogEntry, epoch: EpochNr) -> None:
        """Persist one committed log entry (called on every SB-DELIVER)."""
        self._index_commit(
            sn, self._append(WalRecord(kind=RECORD_COMMIT, epoch=epoch, sn=sn, entry=entry))
        )

    def append_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """Persist a stable checkpoint certificate, and seal the run it
        closes if every position of it is durable (else a later certificate
        will)."""
        sealed = self._seal(certificate.last_sn, self._append(checkpoint_record(certificate)))
        if sealed:
            self.sealed = certificate
            self.seals_total += 1
        elif sealed is False:
            self.deferred_total += 1

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

    def _append(self, record: WalRecord) -> int:
        """Write the record's frame and fsync it before returning its offset."""
        data = frame(record)
        offset = self._end
        self.disk.append(WAL_FILENAME, data)
        self.disk.fsync(WAL_FILENAME)
        self._end += len(data)
        self._records += 1
        self.appended_total += 1
        return offset

    # ------------------------------------------------------------- read-back
    def _frame(self, offset: int, length: int) -> bytes:
        """The frame at ``offset``, read back and checked against its CRC."""
        data = self.disk.read_at(WAL_FILENAME, offset, length)
        if len(data) != length or zlib.crc32(
            memoryview(data)[_FRAME_HEADER.size:]
        ) != _FRAME_HEADER.unpack_from(data)[1]:
            raise OSError(
                f"{WAL_FILENAME} on {self.disk!r}: the frame at offset "
                f"{offset} changed since it was written"
            )
        return data

    def _sealed_entries(self, seq_nrs: List[SeqNr]) -> Dict[SeqNr, LogEntry]:
        """The entries at the sealed positions ``seq_nrs``: one forward scan
        over the file range of the runs holding them."""
        wanted = set(seq_nrs)
        found: Dict[SeqNr, LogEntry] = {}
        if not wanted:
            return found
        runs = [self._runs[bisect_right(self._run_first, sn) - 1] for sn in wanted]
        start, end = min(run.start for run in runs), max(run.end for run in runs)
        for offset, payload in _payloads(self.disk, start, end):
            kind, _epoch, sn = _head(payload)
            if kind is RECORD_COMMIT and sn in wanted and sn not in found:
                found[sn] = decode(payload).entry
                if len(found) == len(wanted):
                    return found
        raise OSError(
            f"{WAL_FILENAME} on {self.disk!r}: sealed positions "
            f"{sorted(wanted - found.keys())} are gone from [{start}, {end})"
        )

    def entry_at(self, sn: SeqNr) -> LogEntry:
        """The committed entry at ``sn``, read back from the file."""
        if 0 <= sn < self.sealed_count():
            return self._sealed_entries([sn])[sn]
        slot = self._commits.get(sn)
        if slot is None:
            raise KeyError(f"sequence number {sn} has no commit in the WAL")
        return decode(self._frame(*slot), _FRAME_HEADER.size).entry

    def entries_of(self, seq_nrs: Iterable[SeqNr]) -> List[Tuple[SeqNr, LogEntry]]:
        """``(sn, entry)`` for the given durable positions, in the given order."""
        wanted = list(seq_nrs)
        count = self.sealed_count()
        sealed = self._sealed_entries([sn for sn in wanted if 0 <= sn < count])
        return [(sn, sealed[sn] if 0 <= sn < count else self.entry_at(sn)) for sn in wanted]

    def records(self) -> Iterator[WalRecord]:
        """Every record in append order (the replay order), decoded once each
        as it streams from the file.  A frame whose CRC and leading fields
        passed at open but whose body does not decode was not torn by a
        crash: it raises :class:`StorageFormatError`."""
        expected, seen = self._records, 0
        for record, _end in read_frames(self.disk):
            seen += 1
            yield record
        if seen < expected:
            raise StorageFormatError(
                f"{WAL_FILENAME} on {self.disk!r}: record {seen} passed its CRC "
                f"but does not decode"
            )
