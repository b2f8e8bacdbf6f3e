"""Every crash state of a replica's log recovers.

A replica's only writes to its disk are an append of one frame to
``wal.log`` (fsync'd before the append returns) and the truncation of a
torn tail when the file is opened.  So a crash can leave exactly these
states: each fsync'd prefix of the file, plus a cut of the one append that
was under way — none of it, its first byte, its frame header, half its
body, or all of it.  This test records one replica's disk operations during
a simulated PBFT run with a crash, a restart and sealed runs, rebuilds each
such state, reopens :class:`NodeStorage` on it and recovers a fresh node
with :class:`RecoveryManager`.  Every state must satisfy three checks:

* the recovered delivered prefix is a prefix of the cluster's final log,
* every commit fsync'd before the crash is present, and
* no position is a silent hole: the node holds exactly the positions whose
  commit records survived, and reads each of them back as the cluster
  committed it.
"""

import pytest

from repro.core.config import ISSConfig, NetworkConfig, WorkloadConfig
from repro.core.iss import ISSNode
from repro.crypto.signatures import KeyStore
from repro.harness import runner
from repro.harness.runner import Deployment
from repro.runtime.faults import CrashSpec, RestartSpec
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.storage import NodeStorage, RecoveryManager, SimDisk
from repro.storage.wal import RECORD_COMMIT, WAL_FILENAME, read_frames

#: The replica whose disk is recorded: it crashes and restarts.
VICTIM = 2

#: Frame header bytes (length, CRC) in front of every record's body.
HEADER = 8


class RecordingDisk(SimDisk):
    """A :class:`SimDisk` that logs every operation that changes it."""

    def __init__(self) -> None:
        super().__init__()
        self.ops = []

    def append(self, name, data):
        self.ops.append(("append", name, bytes(data)))
        super().append(name, data)

    def fsync(self, name):
        self.ops.append(("fsync", name))
        super().fsync(name)

    def truncate(self, name, size):
        self.ops.append(("truncate", name, size))
        super().truncate(name, size)

    def crash(self):
        self.ops.append(("crash",))
        super().crash()


def _cuts(length: int):
    """The byte cuts of one unsynced append of a ``length``-byte frame."""
    return sorted({0, 1, HEADER, HEADER + (length - HEADER) // 2, length})


def crash_states(ops):
    """``(file bytes a crash can leave, length of its fsync'd prefix)``
    for every point of the recorded run."""
    written, synced = bytearray(), 0
    states = {b"": 0}
    for op in ops:
        if op[0] == "append":
            assert op[1] == WAL_FILENAME
            assert synced == len(written), "an append began before the last was synced"
            data = op[2]
            for cut in _cuts(len(data)):
                states.setdefault(bytes(written) + data[:cut], synced)
            written += data
        elif op[0] == "fsync":
            synced = len(written)
            states.setdefault(bytes(written), synced)
        elif op[0] == "truncate":
            del written[op[2]:]
            synced = len(written)
        else:  # crash: the unsynced suffix is gone
            del written[synced:]
    return states


def _disk_holding(data: bytes) -> SimDisk:
    disk = SimDisk()
    if data:
        disk.append(WAL_FILENAME, data)
        disk.fsync(WAL_FILENAME)
    return disk


def _commit_sns(disk) -> set:
    return {record.sn for record, _end in read_frames(disk) if record.kind == RECORD_COMMIT}


@pytest.fixture(scope="module")
def recorded_run():
    """The victim's disk operations, the run's config and client ids, and
    the cluster's final log as ``sn -> digest``."""
    patch = pytest.MonkeyPatch()
    patch.setattr(runner, "SimDisk", RecordingDisk)
    try:
        deployment = Deployment(
            ISSConfig(num_nodes=4, epoch_length=8, max_batch_timeout=0.25, random_seed=3),
            workload=WorkloadConfig(num_clients=8, total_rate=100.0, duration=2.0),
            faults=[
                CrashSpec(node=VICTIM, trigger="at-time", time=1.0),
                RestartSpec(node=VICTIM, time=1.5),
            ],
        )
        result = deployment.run()
    finally:
        patch.undo()
    final = {}
    for node in result.nodes:
        frontier = node.log.first_undelivered
        for sn, entry in node.log.entries_in(range(frontier)):
            final.setdefault(sn, entry.digest())
    victim = result.storages[VICTIM]
    # The restart recovered a sealed run, and the run sealed more after it.
    (recovery,) = result.report.recoveries
    assert recovery["snapshot_entries"] > 0
    assert victim.wal.seals_total > 0
    return victim.disk.ops, deployment.config, deployment.client_ids, final


def _recover(config, client_ids, data: bytes):
    """A fresh victim recovered from a disk holding ``data``."""
    sim = Simulator(seed=9)
    net_config = NetworkConfig(jitter=0.0)
    storage = NodeStorage(VICTIM, _disk_holding(data))
    node = ISSNode(
        node_id=VICTIM,
        config=config,
        sim=sim,
        network=Network(sim, net_config, LatencyModel(net_config, config.num_nodes)),
        key_store=KeyStore(deployment_seed=config.random_seed),
        client_ids=client_ids,
        storage=storage,
    )
    RecoveryManager(storage).recover(node, now=0.0)
    return node, storage


def test_every_crash_state_recovers_a_prefix_with_no_silent_hole(recorded_run):
    ops, config, client_ids, final = recorded_run
    states = crash_states(ops)
    assert any(op[0] == "crash" for op in ops) and len(states) > 100
    for data, synced in states.items():
        node, storage = _recover(config, client_ids, data)
        where = f"crash state of {len(data)} bytes ({synced} synced)"
        log = node.log
        durable = _commit_sns(_disk_holding(data[:synced]))
        on_disk = _commit_sns(storage.disk)
        # Every fsync'd commit is present, and nothing else is claimed.
        assert durable <= on_disk, where
        assert log.committed_count() == len(on_disk) and log.is_complete(on_disk), where
        # What the node holds reads back as the cluster committed it, and
        # its delivered prefix is a prefix of the cluster's final log.
        assert all(
            final.get(sn, entry.digest()) == entry.digest()
            for sn, entry in log.entries_in(sorted(on_disk))
        ), where
        assert all(sn in final for sn in range(log.first_undelivered)), where
