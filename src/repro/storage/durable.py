"""The path-based names of a node directory, for the live backend's callers.

A node's data directory is an :class:`~repro.storage.disk.OsDisk` holding
``wal.log`` and ``snapshot.bin`` (frames of :mod:`repro.storage.wal`), and
it is opened like every node disk, as a
:class:`~repro.storage.node_storage.NodeStorage`.  Every append is fsync'd
before it returns: that is the durability the recovery proof needs, not a
setting.  ``fsync=`` (here and on :class:`~repro.net.deploy.LiveClusterSpec`)
is vestigial and accepts ``"always"`` only, because the frozen
``benchmarks/e2e`` passes it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Tuple, Union

from .disk import OsDisk
from .node_storage import NodeStorage
from .snapshot import SNAPSHOT_FILENAME
from .wal import WAL_FILENAME, StorageFormatError, WalRecord, read_frames

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


def iter_frames(path: Path, offset: int = 0) -> Iterator[Tuple[WalRecord, int]]:
    """:func:`~repro.storage.wal.read_frames` over the file at ``path``."""
    return read_frames(OsDisk(Path(path).parent), Path(path).name, offset)
