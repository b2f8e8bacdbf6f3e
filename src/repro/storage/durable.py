"""File-backed durable storage: the live deployment's WAL and snapshots.

The in-memory :class:`~repro.storage.wal.WriteAheadLog` and
:class:`~repro.storage.snapshot.SnapshotStore` give the *simulator* a
persistence discipline without disks.  This module gives the live TCP
backend (:mod:`repro.net`) the real thing: the same record types, the same
compaction contract, but written to genuine fsync'd files so a ``kill -9``
followed by a restart recovers through
:class:`~repro.storage.recovery.RecoveryManager` from bytes that actually
survived the process.

On-disk format, chosen for torn-tail robustness rather than speed:

* ``wal.log`` — a sequence of frames, each ``>II`` (payload length,
  CRC-32 of the payload) followed by the pickled
  :class:`~repro.storage.wal.WalRecord`.  Appends flush and (by default)
  ``fsync`` before returning, so a commit acknowledged to the protocol is
  on disk.  A crash mid-append leaves a *torn tail* — a short or
  CRC-mismatching last frame — which reopen detects, drops, and truncates
  away; everything before it is intact by construction.
* ``snapshot.bin`` — one pickled :class:`~repro.storage.snapshot.Snapshot`,
  replaced atomically (write temp, fsync, ``os.replace``) at each
  compaction so a crash during snapshotting never corrupts the previous
  snapshot.

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
from pathlib import Path
from typing import List, Optional, Tuple

from .node_storage import NodeStorage
from .snapshot import Snapshot, SnapshotStore
from .wal import WalRecord, WriteAheadLog

#: Frame header of one WAL record: payload length, CRC-32 of the payload.
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
    """Serialise one WAL record into its on-disk frame."""
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_wal_frames(path: Path) -> Tuple[List[WalRecord], int, bool]:
    """Read every intact WAL record from ``path``.

    Returns ``(records, good_offset, torn)`` where ``good_offset`` is the
    file offset right after the last intact frame and ``torn`` is True when
    trailing bytes had to be ignored (short frame, CRC mismatch, or an
    unpicklable payload — all the shapes a crash mid-append can leave).
    Purely a reader: the file is not modified, so it is safe to call on a
    WAL another process is still appending to.
    """
    records: List[WalRecord] = []
    offset = 0
    torn = False
    if not path.exists():
        return records, offset, torn
    data = path.read_bytes()
    total = len(data)
    while offset < total:
        if offset + _FRAME_HEADER.size > total:
            torn = True
            break
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > total:
            torn = True
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            torn = True
            break
        try:
            record = pickle.loads(payload)
        except Exception:
            torn = True
            break
        records.append(record)
        offset = end
    return records, offset, torn


def read_snapshot_file(path: Path) -> Optional[Snapshot]:
    """Load the snapshot at ``path``, or None when absent/unreadable.

    An unreadable snapshot (crash during the very first install, before
    atomic replacement existed to protect it) degrades to "no snapshot":
    recovery then replays the WAL alone, which is always a correct prefix.
    """
    if not path.exists():
        return None
    try:
        snapshot = pickle.loads(path.read_bytes())
    except Exception:
        return None
    return snapshot if isinstance(snapshot, Snapshot) else None


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
            with open(self.path, "r+b") as fh:
                fh.truncate(good_offset)
                fh.flush()
                os.fsync(fh.fileno())
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
    """A :class:`SnapshotStore` whose latest snapshot lives in one file.

    Installs replace the file atomically (temp + fsync + ``os.replace``),
    so the store never holds a half-written snapshot; reopening a path
    loads whatever snapshot the previous process made durable.
    """

    def __init__(self, path: Path):
        super().__init__()
        self.path = Path(path)
        existing = read_snapshot_file(self.path)
        if existing is not None:
            self._latest = existing

    def install(self, snapshot: Snapshot) -> bool:
        accepted = super().install(snapshot)
        if accepted:
            tmp = self.path.with_suffix(".tmp")
            with open(tmp, "wb") as fh:
                fh.write(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            _fsync_dir(self.path.parent)
        return accepted


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
    """A :class:`NodeStorage` whose WAL and snapshots live on disk.

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

    def close(self) -> None:
        """Close the WAL's backing file (snapshots hold no open handle)."""
        self.wal.close()
