"""Durable storage and crash recovery for ISS nodes.

The paper's checkpointing (Section 3.4) and state transfer (Section 3.5)
let *lagging* nodes catch up; this package makes them load-bearing for
*crashed* nodes too.  Every node can own a :class:`NodeStorage` holding one
:class:`WriteAheadLog`: the append-only record of its protocol-critical
durable state — committed log entries, stable checkpoint certificates,
epoch starts and membership views — appended through narrow ``record_*``
hooks called from the ISS core.  It is the node's only file, and nothing in
it is ever rewritten.  A stable checkpoint appends its certificate, which
*seals* the run of entries it newly covers once that run is whole: the
run's per-position index gives way to one anchor in memory, so a
checkpoint costs one record whatever the epoch's size, and a node can drop
sealed history from memory and read it back from the file on demand.

The file is CRC-framed codec records on a per-node disk, and there is one
stack over it: the live backend's :class:`OsDisk` is a directory holding the
fsync'd file, the simulator's :class:`SimDisk` keeps written and synced bytes in
memory and outlives the node.  Every incarnation opens a fresh
``NodeStorage`` on its node's disk, so the crash repairs a restarted process
gets run on every simulated restart too.  :class:`RecoveryManager` then
rebuilds the fresh node: replay the log in one pass, restore the
certificates, fast-forward the epoch bookkeeping, re-deliver the restored
prefix, and leave the rest to state transfer.
"""

from .disk import Disk, OsDisk, SimDisk
from .node_storage import NodeStorage
from .recovery import RecoveryInfo, RecoveryManager
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
    "WalRecord",
    "WriteAheadLog",
    "RECORD_CHECKPOINT",
    "RECORD_COMMIT",
    "RECORD_EPOCH_START",
]
