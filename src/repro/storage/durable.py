"""File-backed durable storage: the live deployment's WAL and snapshots.

The in-memory :class:`~repro.storage.wal.WriteAheadLog` and
:class:`~repro.storage.snapshot.SnapshotStore` give the *simulator* a
persistence discipline without disks.  This module gives the live TCP
backend (:mod:`repro.net`) the real thing: the same record types, the same
compaction contract, but written to genuine fsync'd files so a ``kill -9``
followed by a restart recovers through
:class:`~repro.storage.recovery.RecoveryManager` from bytes that actually
survived the process.

On-disk format, chosen for torn-tail robustness rather than speed.  Both
files of a node directory are sequences of the *same* frame — ``>II``
(payload length, CRC-32 of the payload) followed by the pickled
:class:`~repro.storage.wal.WalRecord` — written by one encoder
(:func:`_frame`) and read by one streaming decoder (:func:`iter_frames`):

* ``wal.log`` — the tail above the latest stable checkpoint.  Appends
  flush and (by default) ``fsync`` before returning, so a commit
  acknowledged to the protocol is on disk.  A crash mid-append leaves a
  *torn tail* — a short or CRC-mismatching last frame — which reopen
  detects, drops, and truncates away; everything before it is intact by
  construction.  Compaction rewrites the file atomically (temp, fsync,
  ``os.replace``); it only ever holds the tail, so that is O(tail).
* ``snapshot.bin`` — the *sealed archive*: every entry below the latest
  stable checkpoint, exactly once, in sequence-number order.  It is only
  ever appended to.  One seal appends the newly covered commit records
  followed by the checkpoint-certificate record (the *seal marker*), then
  issues one ``fsync``; only after that does the WAL drop the run.  A
  sealed run is therefore a span of commit frames closed by a checkpoint
  frame, and an archive is a concatenation of sealed runs.  Whatever
  follows the last seal marker — a torn frame, or commit frames whose
  marker never made it — is dropped and truncated on reopen like a torn
  WAL tail: those records are by construction still in ``wal.log``.  A
  damaged frame in the *middle* ends the archive at the last seal marker
  before it; the node then recovers that prefix and fetches the rest from
  its peers (state transfer), never a log with a silent hole.

In memory the archive is its latest certificate, the sealed count and one
``(first sn, file offset)`` pair per sealed run; entries are read back from
the file on demand (state transfer for an old epoch, recovery).

What a reader of a *running* replica's directory may assume (the audit in
:mod:`repro.net.deploy` relies on it): every CRC-valid commit frame in
either file is a commit the replica made durable; ``snapshot.bin`` only
grows, and a record leaves ``wal.log`` only after the archive holding it was
fsync'd — so reading ``wal.log`` first and ``snapshot.bin`` second never
misses an entry, while the opposite order can.

The fsync policy is configurable (``REPRO_FSYNC``): ``"always"`` syncs on
every append (the durability the recovery proof needs), ``"never"`` leaves
flushing to the OS page cache (benchmarking the protocol without paying
the disk; a power loss may then lose acknowledged commits).
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple

from ..core.types import CheckpointCertificate, LogEntry, SeqNr
from .node_storage import NodeStorage
from .snapshot import SealedEntry, SnapshotStore
from .wal import RECORD_CHECKPOINT, RECORD_COMMIT, WalRecord, WriteAheadLog

#: Frame header of one record: payload length, CRC-32 of the payload.
_FRAME_HEADER = struct.Struct(">II")

#: Recognised fsync policies (see :func:`fsync_policy`).
FSYNC_ALWAYS = "always"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_NEVER)

#: File names inside one node's data directory.
WAL_FILENAME = "wal.log"
SNAPSHOT_FILENAME = "snapshot.bin"


def fsync_policy(default: str = FSYNC_ALWAYS) -> str:
    """The fsync policy from the ``REPRO_FSYNC`` env var.

    Unrecognised values fall back to ``default`` — misconfiguration must
    degrade to the *safer* behaviour, never silently disable durability.
    """
    raw = os.environ.get("REPRO_FSYNC", default).strip().lower()
    return raw if raw in FSYNC_POLICIES else default


def _frame(record: WalRecord) -> bytes:
    """Serialise one record into its on-disk frame."""
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def iter_frames(path: Path, offset: int = 0) -> Iterator[Tuple[WalRecord, int]]:
    """Stream the intact records of ``path`` from ``offset`` on.

    Yields ``(record, end_offset)`` — ``end_offset`` being the file offset
    right after the record's frame — and stops at the first frame that is
    short, fails its CRC or does not unpickle to a :class:`WalRecord` (all
    the shapes a crash mid-append can leave).  One frame is in memory at a
    time.  Purely a reader: the file is not modified, and only the bytes
    present when the scan started are looked at, so it is safe on a file
    another process is still appending to.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        total = os.fstat(fh.fileno()).st_size
        fh.seek(offset)
        while offset + _FRAME_HEADER.size <= total:
            length, crc = _FRAME_HEADER.unpack(fh.read(_FRAME_HEADER.size))
            end = offset + _FRAME_HEADER.size + length
            if end > total:
                return
            payload = fh.read(length)
            if len(payload) != length or zlib.crc32(payload) != crc:
                return
            try:
                record = pickle.loads(payload)
            except Exception:
                return
            if not isinstance(record, WalRecord):
                return
            offset = end
            yield record, offset


def read_wal_frames(path: Path) -> Tuple[List[WalRecord], int, bool]:
    """Read every intact record from ``path`` (see :func:`iter_frames`).

    Returns ``(records, good_offset, torn)`` where ``good_offset`` is the
    file offset right after the last intact frame and ``torn`` is True when
    trailing bytes had to be ignored.  For the WAL, whose records are the
    in-memory tail anyway; the archive is only ever streamed.
    """
    records: List[WalRecord] = []
    good_offset = 0
    for record, good_offset in iter_frames(path):
        records.append(record)
    torn = path.exists() and good_offset < path.stat().st_size
    return records, good_offset, torn


def _truncate(path: Path, offset: int) -> None:
    """Durably cut ``path`` back to ``offset`` bytes."""
    with open(path, "r+b") as fh:
        fh.truncate(offset)
        fh.flush()
        os.fsync(fh.fileno())


class FileWriteAheadLog(WriteAheadLog):
    """A :class:`WriteAheadLog` persisted to an append-only fsync'd file.

    Reopening a path replays every intact record into memory (so the
    in-memory API is unchanged) and truncates a torn tail left by a crash
    mid-append.  Compaction (:meth:`truncate_below`) rewrites the file
    atomically via a temp file.
    """

    def __init__(self, path: Path, fsync: str = FSYNC_ALWAYS):
        super().__init__()
        self.path = Path(path)
        self._fsync = fsync == FSYNC_ALWAYS
        #: fsync() calls issued (tests pin fsync-on-commit through this).
        self.fsyncs = 0
        #: Whether reopen found (and truncated) a torn tail.
        self.torn_tail_detected = False
        records, good_offset, torn = read_wal_frames(self.path)
        if torn:
            self.torn_tail_detected = True
            _truncate(self.path, good_offset)
        self._records.extend(records)
        self.appended_total = len(records)
        self._fh = open(self.path, "ab")

    def _append(self, record: WalRecord) -> None:
        super()._append(record)
        self._fh.write(_frame(record))
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1

    def truncate_below(self, sn_bound: int, epoch_bound: int) -> int:
        dropped = super().truncate_below(sn_bound, epoch_bound)
        if dropped:
            self._rewrite()
        return dropped

    def _rewrite(self) -> None:
        """Atomically rewrite the file with the surviving records."""
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            for record in self._records:
                fh.write(_frame(record))
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")
        _fsync_dir(self.path.parent)

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
            self._fh.close()


class FileSnapshotStore(SnapshotStore):
    """The sealed archive in one append-only file (see the module docstring).

    Memory holds the anchors only — latest certificate, sealed count, one
    ``(first sn, file offset)`` pair per sealed run; entries are streamed
    back from the file.  Reopening a path rebuilds the anchors by one
    streaming scan and truncates whatever follows the last seal marker.
    """

    def __init__(self, path: Path):
        super().__init__()
        self.path = Path(path)
        #: First sequence number and file offset of each sealed run, in
        #: file order (parallel lists; the first is what lookups bisect).
        self._run_first_sn: List[SeqNr] = []
        self._run_offset: List[int] = []
        #: File offset right after the last seal marker (where appends go).
        self._end = 0
        self._scan()
        #: Whether reopen found (and truncated) bytes after the last seal.
        self.unsealed_tail_detected = (
            self.path.exists() and self._end < self.path.stat().st_size
        )
        if self.unsealed_tail_detected:
            _truncate(self.path, self._end)

    def _scan(self) -> None:
        """Rebuild the anchors from the file.  A sealed run is consecutive
        commit records continuing the sealed prefix, closed by the
        certificate of their last position; the scan ends at anything else."""
        expected: SeqNr = 0
        for record, end in iter_frames(self.path):
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
        self._note_seal(certificate)

    def _append(
        self, delta: Sequence[SealedEntry], certificate: CheckpointCertificate
    ) -> None:
        created = not self.path.exists()
        records = [
            WalRecord(kind=RECORD_COMMIT, epoch=epoch, sn=sn, entry=entry)
            for sn, entry, epoch in delta
        ]
        records.append(
            WalRecord(
                kind=RECORD_CHECKPOINT,
                epoch=certificate.epoch,
                sn=certificate.last_sn,
                certificate=certificate,
            )
        )
        written = 0
        with open(self.path, "ab") as fh:
            try:
                for record in records:
                    written += fh.write(_frame(record))
                fh.flush()
                os.fsync(fh.fileno())
            except BaseException:
                # A half-appended run must not stay in front of later seals.
                fh.truncate(self._end)
                raise
        if created:
            _fsync_dir(self.path.parent)
        self._note_run(self._end + written, certificate)

    def entries(self, start: SeqNr = 0) -> Iterator[SealedEntry]:
        if not 0 <= start < self.entry_count():
            return
        run = bisect_right(self._run_first_sn, start) - 1
        for record, _end in iter_frames(self.path, self._run_offset[run]):
            if record.kind == RECORD_COMMIT and record.sn >= start:
                yield record.sn, record.entry, record.epoch

    def entry_at(self, sn: SeqNr) -> LogEntry:
        for _sn, entry, _epoch in self.entries(sn):
            return entry
        raise KeyError(f"sequence number {sn} is not sealed")

    def entries_of(self, seq_nrs: Iterable[SeqNr]) -> List[Tuple[SeqNr, LogEntry]]:
        """One pass over the file from the run holding the lowest position."""
        wanted = list(seq_nrs)
        found = {}
        if wanted:
            last = max(wanted)
            for sn, entry, _epoch in self.entries(min(wanted)):
                found[sn] = entry
                if sn >= last:
                    break
        return [(sn, found[sn]) for sn in wanted]


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a rename within it is durable (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class DurableNodeStorage(NodeStorage):
    """A :class:`NodeStorage` whose WAL and sealed archive live on disk.

    One directory per node (``data_dir/node<N>`` by convention, chosen by
    the caller); constructing it on a directory with prior state reloads
    that state, which is exactly what a restarted
    :mod:`repro.net.host` process does before running recovery.
    """

    def __init__(self, node_id: int, directory: Path, fsync: str = FSYNC_ALWAYS):
        super().__init__(node_id)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal = FileWriteAheadLog(self.directory / WAL_FILENAME, fsync=fsync)
        self.snapshots = FileSnapshotStore(self.directory / SNAPSHOT_FILENAME)
        latest = self.snapshots.latest()
        if latest is not None:
            # A crash between the archive fsync and the WAL rewrite leaves
            # the sealed run in both files: finish that compaction.
            self.wal.truncate_below(latest.last_sn + 1, latest.epoch)

    def close(self) -> None:
        """Close the WAL's backing file (the archive holds no open handle)."""
        self.wal.close()
