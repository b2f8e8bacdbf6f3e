"""The file seam of one node's storage, and its two disks.

A disk offers ``append(name, data)`` (handed to the OS, not yet durable),
``fsync(name)``, ``replace(name, data)`` (atomic and durable),
``truncate(name, size)`` (durable; a missing file stays missing),
``size(name)`` (0 when missing), ``read(name, offset)`` (a stream over an
existing file from ``offset``, used as a context manager),
``read_at(name, offset, size)`` (one positional read of ``size`` bytes) and
``close()``.  This is the only
module of :mod:`repro.storage` that touches the file system.  An
:class:`OsDisk` is a node directory; a :class:`SimDisk` keeps each file's
written bytes and synced length in memory and outlives the simulated node,
so a restart opens what a restarted process would find.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Dict, Union


class OsDisk:
    """A node directory.  One append handle per file stays open between
    appends (the WAL's hot path is one ``write`` and one ``fsync``); the
    directory is created by the first append, never by a reader."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self._handles: Dict[str, BinaryIO] = {}
        #: One read-only descriptor per file :meth:`read_at` has read.
        self._readers: Dict[str, int] = {}

    def __repr__(self) -> str:
        return f"OsDisk({str(self.directory)!r})"

    def _drop_handle(self, name: str) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()

    def _drop_reader(self, name: str) -> None:
        fd = self._readers.pop(name, None)
        if fd is not None:
            os.close(fd)

    def append(self, name: str, data: bytes) -> None:
        """Write ``data`` at the end of ``name`` and flush it to the OS."""
        handle = self._handles.get(name)
        if handle is None:
            path = self.directory / name
            created = not path.exists()
            if created:
                self.directory.mkdir(parents=True, exist_ok=True)
            handle = self._handles[name] = open(path, "ab")
            if created:
                self._fsync_directory()
        handle.write(data)
        handle.flush()

    def fsync(self, name: str) -> None:
        """fsync the file (a no-op when nothing was appended since the last
        durable operation)."""
        handle = self._handles.get(name)
        if handle is not None:
            os.fsync(handle.fileno())

    def replace(self, name: str, data: bytes) -> None:
        """Temp file, fsync, ``os.replace``, fsync the directory."""
        path = self.directory / name
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        self._drop_handle(name)
        # A descriptor on the replaced file would go on reading the old one.
        self._drop_reader(name)
        os.replace(tmp, path)
        self._fsync_directory()

    def truncate(self, name: str, size: int) -> None:
        """Cut ``name`` back to ``size`` bytes and fsync it."""
        self._drop_handle(name)
        try:
            fh = open(self.directory / name, "r+b")
        except FileNotFoundError:
            return
        with fh:
            fh.truncate(size)
            os.fsync(fh.fileno())

    def size(self, name: str) -> int:
        """Length of ``name`` (0 when it does not exist)."""
        try:
            return os.stat(self.directory / name).st_size
        except FileNotFoundError:
            return 0

    def read(self, name: str, offset: int = 0) -> BinaryIO:
        """``name`` opened for reading at ``offset``."""
        stream = open(self.directory / name, "rb")
        stream.seek(offset)
        return stream

    def read_at(self, name: str, offset: int, size: int) -> bytes:
        """Up to ``size`` bytes of ``name`` from ``offset`` (one ``pread``)."""
        fd = self._readers.get(name)
        if fd is None:
            fd = self._readers[name] = os.open(self.directory / name, os.O_RDONLY)
        return os.pread(fd, size, offset)

    def close(self) -> None:
        """Close every append handle and read descriptor (idempotent)."""
        for name in list(self._handles):
            self._drop_handle(name)
        for name in list(self._readers):
            self._drop_reader(name)

    def _fsync_directory(self) -> None:
        """Make a create or rename in the directory durable (best effort:
        not every file system can sync a directory)."""
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


class SimDisk:
    """A simulated node disk: per file, the written bytes and the synced length."""

    def __init__(self) -> None:
        self._files: Dict[str, bytearray] = {}
        self._synced: Dict[str, int] = {}

    def append(self, name: str, data: bytes) -> None:
        """Write ``data`` at the end of ``name`` (not yet durable)."""
        self._files.setdefault(name, bytearray()).extend(data)

    def fsync(self, name: str) -> None:
        """Everything written to ``name`` so far survives a crash."""
        self._synced[name] = self.size(name)

    def replace(self, name: str, data: bytes) -> None:
        """Atomically and durably replace the content of ``name``."""
        self._files[name] = bytearray(data)
        self._synced[name] = len(data)

    def truncate(self, name: str, size: int) -> None:
        """Durably cut ``name`` back to ``size`` bytes."""
        if name in self._files:
            del self._files[name][size:]
            self._synced[name] = self.size(name)

    def size(self, name: str) -> int:
        """Length of ``name``, synced or not (0 when it does not exist)."""
        return len(self._files.get(name, b""))

    def read(self, name: str, offset: int = 0) -> "_SimReader":
        """A cursor over ``name`` from ``offset`` on."""
        return _SimReader(self._files[name], offset)

    def read_at(self, name: str, offset: int, size: int) -> bytes:
        """Up to ``size`` bytes of ``name`` from ``offset``."""
        return bytes(self._files[name][offset:offset + size])

    def crash(self) -> None:
        """Lose power: every unsynced suffix is gone."""
        for name, data in self._files.items():
            del data[self._synced.get(name, 0):]

    def close(self) -> None:
        """Nothing is held open."""


class _SimReader:
    """A read cursor over one :class:`SimDisk` file.  Like an open file
    descriptor it copies only what it reads, and keeps the bytes it was
    opened on if the file is replaced meanwhile."""

    def __init__(self, data: bytearray, offset: int):
        self._data = data
        self._position = offset

    def read(self, size: int = -1) -> bytes:
        """Up to ``size`` bytes from the cursor on (all of them if negative)."""
        start = self._position
        end = len(self._data) if size < 0 else start + size
        chunk = bytes(self._data[start:end])
        self._position = start + len(chunk)
        return chunk

    def __enter__(self) -> "_SimReader":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


#: What :mod:`repro.storage` writes through (see the module docstring).
Disk = Union[OsDisk, SimDisk]
