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

:class:`RecoveryManager` reconstructs a fresh node from that storage after
a crash: stream the sealed archive, replay the WAL above it, fast-forward the
epoch bookkeeping, re-deliver the restored prefix to the application, and
hand the node back to the harness to fetch anything ordered while it was
down through the existing state-transfer protocol.

The simulator backs all of this with plain in-memory structures (it has
no disks), but the write/compact/replay discipline mirrors a real WAL +
snapshot store, so the recovery path exercises the same protocol logic a
production deployment would.  The live TCP backend uses the file-backed
subclasses in :mod:`repro.storage.durable` — same record types and
compaction contract, written to genuine fsync'd files with torn-tail
detection on reopen — so ``kill -9`` recovery runs over real durability.
"""

from .durable import (
    DurableNodeStorage,
    FileSnapshotStore,
    FileWriteAheadLog,
    fsync_policy,
)
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
    "DurableNodeStorage",
    "FileSnapshotStore",
    "FileWriteAheadLog",
    "fsync_policy",
    "NodeStorage",
    "RecoveryInfo",
    "RecoveryManager",
    "Snapshot",
    "SnapshotStore",
    "WalRecord",
    "WriteAheadLog",
    "RECORD_CHECKPOINT",
    "RECORD_COMMIT",
    "RECORD_EPOCH_START",
]
