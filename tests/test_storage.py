"""Unit tests for the durable storage subsystem (WAL, snapshots, recovery).

Integration coverage — full crash→restart→catch-up across the three SB
protocols — lives in ``tests/test_recovery_integration.py``; these tests pin
the storage-layer mechanics in isolation, on the simulator's ``SimDisk``:
append/truncate discipline, snapshot contiguity, compaction (including the
deferred case), and WAL-only recovery of a fresh ISS node.  Crash behaviour
of the files themselves is ``tests/test_durable_storage.py``'s.
"""

import pytest

from repro.core.config import ISSConfig, NetworkConfig
from repro.core.iss import ISSNode
from repro.core.types import CheckpointCertificate, NIL
from repro.crypto.signatures import KeyStore
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.storage import (
    NodeStorage,
    RecoveryManager,
    SimDisk,
    Snapshot,
    SnapshotStore,
    WriteAheadLog,
    RECORD_CHECKPOINT,
    RECORD_COMMIT,
    RECORD_EPOCH_START,
)
from repro.storage.wal import WalRecord, frame
from tests.conftest import make_batch, make_request


def fake_certificate(epoch: int, last_sn: int) -> CheckpointCertificate:
    """An unverified certificate (fine below the verification layer)."""
    return CheckpointCertificate(
        epoch=epoch,
        last_sn=last_sn,
        log_root=b"root-%d" % epoch,
        signatures=((0, b"s0"), (1, b"s1"), (2, b"s2")),
    )


def entry(sn: int):
    return make_batch(make_request(timestamp=sn))


def run_frame(sn: int, value, epoch: int):
    """``(sn, commit frame)``: one element of a run handed to ``seal``."""
    return sn, frame(WalRecord(kind=RECORD_COMMIT, epoch=epoch, sn=sn, entry=value))


class TestWriteAheadLog:
    def test_appends_preserve_order_and_kinds(self):
        wal = WriteAheadLog(SimDisk())
        wal.append_epoch_start(0)
        wal.append_commit(0, entry(0), 0)
        wal.append_commit(1, NIL, 0)
        wal.append_checkpoint(fake_certificate(0, 1))
        kinds = [record.kind for record in wal.records()]
        assert kinds == [
            RECORD_EPOCH_START,
            RECORD_COMMIT,
            RECORD_COMMIT,
            RECORD_CHECKPOINT,
        ]
        assert len(wal) == 4
        assert wal.appended_total == 4
        assert [sn for sn, _e, _ep in wal.commits()] == [0, 1]
        assert [c.epoch for c in wal.checkpoints()] == [0]
        assert wal.latest_epoch_started() == 0

    def test_truncate_below_drops_covered_records_only(self):
        wal = WriteAheadLog(SimDisk())
        wal.append_epoch_start(0)
        for sn in range(4):
            wal.append_commit(sn, entry(sn), 0)
        wal.append_checkpoint(fake_certificate(0, 3))
        wal.append_epoch_start(1)
        wal.append_commit(4, entry(4), 1)  # ran ahead of the checkpoint
        dropped = wal.truncate_below(4, 1)
        # 4 commits + the epoch-0 start and certificate are covered.
        assert dropped == 6
        assert [sn for sn, _e, _ep in wal.commits()] == [4]
        assert wal.latest_epoch_started() == 1
        assert wal.truncated_total == 6
        assert wal.appended_total == 8

    def test_truncate_is_idempotent(self):
        wal = WriteAheadLog(SimDisk())
        wal.append_commit(0, entry(0), 0)
        assert wal.truncate_below(1, 1) == 1
        assert wal.truncate_below(1, 1) == 0


class TestSnapshotStore:
    def test_seal_requires_contiguous_run(self):
        store = SnapshotStore(SimDisk())
        with pytest.raises(ValueError):  # a gap inside the run
            store.seal(
                [run_frame(0, entry(0), 0), run_frame(2, entry(2), 0)], fake_certificate(0, 2)
            )
        with pytest.raises(ValueError):  # shorter than the certificate covers
            store.seal([run_frame(0, entry(0), 0)], fake_certificate(0, 1))
        assert store.latest() is None
        store.seal([run_frame(0, entry(0), 0)], fake_certificate(0, 0))
        with pytest.raises(ValueError):  # does not start where the archive ends
            store.seal([run_frame(2, entry(2), 1)], fake_certificate(1, 2))
        with pytest.raises(ValueError):  # re-sealing what is already sealed
            store.seal([run_frame(0, entry(0), 0)], fake_certificate(0, 0))
        assert store.entry_count() == 1

    def test_newer_seal_extends_older(self):
        store = SnapshotStore(SimDisk())
        first, second = fake_certificate(0, 0), fake_certificate(1, 2)
        store.seal([run_frame(0, entry(0), 0)], first)
        assert store.latest() == Snapshot(epoch=0, last_sn=0, certificate=first)
        store.seal([run_frame(1, entry(1), 1), run_frame(2, NIL, 1)], second)
        assert store.latest() == Snapshot(epoch=1, last_sn=2, certificate=second)
        assert store.entry_count() == len(store.latest()) == 3
        assert store.seals_total == 2
        # The archive answers for every sealed position, and only for those.
        assert [sn for sn, _e, _ep in store.entries()] == [0, 1, 2]
        assert [(sn, ep) for sn, _e, ep in store.entries(start=1)] == [(1, 1), (2, 1)]
        assert store.entry_at(1) == entry(1) and store.entry_at(2) is NIL
        assert store.entries_of([2, 0]) == [(2, NIL), (0, entry(0))]
        with pytest.raises(KeyError):
            store.entry_at(3)


class TestNodeStorageCompaction:
    def test_stable_checkpoint_compacts_wal_into_snapshot(self):
        storage = NodeStorage(0, SimDisk())
        storage.record_epoch_start(0)
        for sn in range(4):
            storage.record_commit(sn, entry(sn), 0)
        storage.record_stable_checkpoint(fake_certificate(0, 3))
        snapshot = storage.latest_snapshot()
        assert snapshot is not None and snapshot.last_sn == 3
        assert [sn for sn, _e, _ep in storage.snapshots.entries()] == [0, 1, 2, 3]
        assert len(storage.wal.commits()) == 0
        assert storage.compactions == 1
        assert storage.durable_entry_count() == 4

    def test_incomplete_prefix_defers_compaction(self):
        """A stable checkpoint can outrun the local log (2f+1 peers vote
        first); compaction waits until the gap is filled."""
        storage = NodeStorage(0, SimDisk())
        storage.record_commit(0, entry(0), 0)
        storage.record_commit(2, entry(2), 0)  # sn 1 missing
        storage.record_stable_checkpoint(fake_certificate(0, 2))
        assert storage.latest_snapshot() is None
        assert storage.deferred_compactions == 1
        # State transfer fills the hole; the next checkpoint retries.
        storage.record_commit(1, entry(1), 0)
        for sn in range(3, 6):
            storage.record_commit(sn, entry(sn), 1)
        storage.record_stable_checkpoint(fake_certificate(1, 5))
        snapshot = storage.latest_snapshot()
        assert snapshot is not None and snapshot.last_sn == 5
        assert storage.compactions == 1

    def test_stale_checkpoint_does_not_regress_snapshot(self):
        storage = NodeStorage(0, SimDisk())
        for sn in range(2):
            storage.record_commit(sn, entry(sn), 0)
        storage.record_stable_checkpoint(fake_certificate(0, 1))
        before = storage.latest_snapshot()
        storage.record_stable_checkpoint(fake_certificate(0, 0))
        assert storage.latest_snapshot() is before


class RecoveryHarness:
    """A fresh ISS node plus a hand-built storage to recover it from."""

    def __init__(self, epoch_length=4, num_nodes=4, storage=None):
        self.config = ISSConfig(
            num_nodes=num_nodes,
            epoch_length=epoch_length,
            batch_rate=None,
            max_batch_timeout=0.5,
        )
        self.sim = Simulator(seed=9)
        net_config = NetworkConfig(jitter=0.0)
        self.network = Network(self.sim, net_config, LatencyModel(net_config, num_nodes))
        self.key_store = KeyStore(deployment_seed=2)
        self.delivered = []
        self.storage = storage if storage is not None else NodeStorage(0, SimDisk())
        self.node = ISSNode(
            node_id=0,
            config=self.config,
            sim=self.sim,
            network=self.network,
            key_store=self.key_store,
            client_ids=[0],
            on_deliver=lambda node_id, item: self.delivered.append(item),
            storage=self.storage,
        )


class TestRecoveryManager:
    def test_wal_only_recovery_replays_commits_and_fast_forwards(self):
        harness = RecoveryHarness()
        storage = harness.storage
        # Epoch 0 fully committed, epoch 1 partially: resume at epoch 1.
        storage.record_epoch_start(0)
        for sn in range(4):
            storage.record_commit(sn, entry(sn), 0)
        storage.record_epoch_start(1)
        storage.record_commit(4, entry(4), 1)

        info = RecoveryManager(storage).recover(harness.node, now=1.0)
        assert info.resume_epoch == 1
        assert info.wal_entries_replayed == 5
        assert info.snapshot_entries == 0
        assert harness.node.log.is_complete(range(5))
        assert harness.node.epochs_completed == 1
        # The restored prefix was re-delivered to the application listener.
        assert info.requests_redelivered == len(harness.delivered) == 5

    def test_replay_does_not_duplicate_persistence(self):
        """Replayed entries must not be re-appended to the WAL."""
        harness = RecoveryHarness()
        storage = harness.storage
        for sn in range(2):
            storage.record_commit(sn, entry(sn), 0)
        appended_before = storage.wal.appended_total
        RecoveryManager(storage).recover(harness.node, now=0.0)
        assert storage.wal.appended_total == appended_before

    def test_empty_storage_recovers_to_epoch_zero(self):
        harness = RecoveryHarness()
        info = RecoveryManager(harness.storage).recover(harness.node, now=0.0)
        assert info.resume_epoch == 0
        assert info.wal_entries_replayed == 0
        assert info.requests_redelivered == 0
