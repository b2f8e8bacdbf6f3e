"""The path-based names of a node directory, for the live backend's callers.

A node's data directory is an :class:`~repro.storage.disk.OsDisk` holding
one file, ``wal.log`` (frames of :mod:`repro.storage.wal`), and it is opened
like every node disk, as a :class:`~repro.storage.node_storage.NodeStorage`.
Every append is fsync'd before it returns: that is the durability the
recovery proof needs, not a setting.  ``fsync=`` (here and on
:class:`~repro.net.deploy.LiveClusterSpec`) is vestigial and accepts
``"always"`` only, because the frozen ``benchmarks/e2e`` passes it; so is
:data:`SNAPSHOT_FILENAME`, the name of a file no longer written.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Union

from .disk import OsDisk
from .node_storage import NodeStorage
from .wal import SNAPSHOT_FILENAME, WAL_FILENAME, StorageFormatError, WalRecord, read_frames

__all__ = ["SNAPSHOT_FILENAME", "WAL_FILENAME", "StorageFormatError"]

#: The single legal value of the vestigial ``fsync=`` fields.
FSYNC_ALWAYS = "always"


def check_fsync(fsync: str) -> None:
    """Raise ``ValueError`` unless ``fsync`` is :data:`FSYNC_ALWAYS`."""
    if fsync != FSYNC_ALWAYS:
        raise ValueError(
            f"fsync is fixed at {FSYNC_ALWAYS!r}: every append is synced "
            f"before it returns, got {fsync!r}"
        )


def DurableNodeStorage(  # noqa: N802 — the frozen benchmark's spelling
    node_id: int, directory: Union[str, Path], fsync: str = FSYNC_ALWAYS
) -> NodeStorage:
    """Open the :class:`NodeStorage` in the node directory ``directory``."""
    check_fsync(fsync)
    return NodeStorage(node_id, OsDisk(directory))


def read_records(directory: Union[str, Path]) -> Iterator[WalRecord]:
    """The intact records of the node directory's ``wal.log``, in append
    order.  Pure reads, never a repair: safe on a running node's directory
    (the scan stops at a concurrent append's torn tail)."""
    return (record for record, _end in read_frames(OsDisk(directory)))
