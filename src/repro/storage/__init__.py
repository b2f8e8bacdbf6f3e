"""Durable storage and crash recovery for ISS nodes.

The paper's checkpointing (Section 3.4) and state transfer (Section 3.5)
let *lagging* nodes catch up; this package makes them load-bearing for
*crashed* nodes too.  Every node can own a :class:`NodeStorage` holding

* a :class:`WriteAheadLog` of protocol-critical durable state — committed
  log entries, stable checkpoint certificates and epoch starts — appended
  through narrow ``record_*`` hooks called from the ISS core, and
* a :class:`SnapshotStore` — the *sealed archive* — that the WAL compacts
  into at every stable checkpoint: the run of entries the checkpoint newly
  covers is appended to it, closed by the checkpoint certificate, and
  truncated out of the WAL (Section 3.4's truncate-below-checkpoint).  A
  checkpoint therefore costs what it covers, and a node can drop sealed
  history from memory and read it back from the archive on demand.

Both are files of CRC-framed codec records on a per-node disk, and there is
one stack over it: the live backend's :class:`OsDisk` is a directory of
fsync'd files, the simulator's :class:`SimDisk` keeps written and synced
bytes in memory and outlives the node.  Every incarnation opens a fresh
``NodeStorage`` on its node's disk, so the crash repairs a restarted process
gets run on every simulated restart too.  :class:`RecoveryManager` then
rebuilds the fresh node: stream the sealed archive, replay the WAL above
it, fast-forward the epoch bookkeeping, re-deliver the restored prefix, and
leave the rest to state transfer.
"""

from .disk import Disk, OsDisk, SimDisk
from .node_storage import NodeStorage
from .recovery import RecoveryInfo, RecoveryManager
from .snapshot import Snapshot, SnapshotStore
from .wal import (
    RECORD_CHECKPOINT,
    RECORD_COMMIT,
    RECORD_EPOCH_START,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "Disk",
    "NodeStorage",
    "OsDisk",
    "RecoveryInfo",
    "RecoveryManager",
    "SimDisk",
    "Snapshot",
    "SnapshotStore",
    "WalRecord",
    "WriteAheadLog",
    "RECORD_CHECKPOINT",
    "RECORD_COMMIT",
    "RECORD_EPOCH_START",
]
