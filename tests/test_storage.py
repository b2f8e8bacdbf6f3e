"""Unit tests for the durable storage subsystem (WAL, sealing, recovery).

Integration coverage — full crash→restart→catch-up across the three SB
protocols — lives in ``tests/test_recovery_integration.py``; these tests pin
the storage-layer mechanics in isolation, on the simulator's ``SimDisk``:
append discipline, sealing at stable checkpoints (including the deferred
case), WAL-only recovery of a fresh ISS node and the catch-up mode it
boots into.  Crash behaviour of the file itself is
``tests/test_durable_storage.py``'s.
"""

from collections import Counter

import pytest

from repro.core.config import ISSConfig, NetworkConfig
from repro.core.iss import ISSNode
from repro.core.types import Batch, CheckpointCertificate, NIL
from repro.crypto.signatures import KeyStore
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.storage import (
    NodeStorage,
    RecoveryManager,
    SimDisk,
    WriteAheadLog,
    RECORD_CHECKPOINT,
    RECORD_COMMIT,
    RECORD_EPOCH_START,
)
from repro.storage.recovery import boot_from_storage
from repro.storage.wal import read_frames
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


def commit_sns(wal: WriteAheadLog):
    """The positions of the log's commit records, in append order."""
    return [record.sn for record in wal.records() if record.kind == RECORD_COMMIT]


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
        assert commit_sns(wal) == [0, 1]
        assert [r.certificate.epoch for r in wal.records() if r.certificate] == [0]

    def test_a_seal_keeps_every_record_and_drops_only_index_slots(self):
        wal = WriteAheadLog(SimDisk())
        wal.append_epoch_start(0)
        for sn in range(4):
            wal.append_commit(sn, entry(sn), 0)
        wal.append_epoch_start(1)
        wal.append_commit(4, entry(4), 1)  # ran ahead of the checkpoint
        wal.append_checkpoint(fake_certificate(0, 3))
        # Nothing leaves the file; the sealed positions leave the index.
        assert len(wal) == wal.appended_total == 8
        assert commit_sns(wal) == [0, 1, 2, 3, 4]
        assert wal.sealed_count() == 4 and wal.commit_count() == 1
        assert wal.seals_total == 1
        # The log answers for every position, sealed or not, and only those.
        assert [wal.entry_at(sn) for sn in range(5)] == [entry(sn) for sn in range(5)]
        assert wal.entries_of([4, 0, 2]) == [(4, entry(4)), (0, entry(0)), (2, entry(2))]
        for sn in (-1, 5):
            with pytest.raises(KeyError):
                wal.entry_at(sn)

    def test_sealed_runs_interleave_in_the_file(self):
        """Commit order is not sn order: a run's frames share the file with
        the next epoch's and with late fills, and reads step over them."""
        wal = WriteAheadLog(SimDisk())
        for sn in (0, 2, 4, 5):
            wal.append_commit(sn, entry(sn), sn // 3)
        wal.append_checkpoint(fake_certificate(0, 2))  # sn 1 missing: deferred
        wal.append_commit(1, entry(1), 0)  # a state-transfer fill
        wal.append_commit(3, entry(3), 1)
        wal.append_checkpoint(fake_certificate(1, 5))
        assert wal.deferred_total == 1 and wal.seals_total == 1
        assert wal.sealed_count() == 6 and wal.commit_count() == 0
        assert wal.entries_of(range(6)) == [(sn, entry(sn)) for sn in range(6)]


class TestNodeStorageCompaction:
    """A stable checkpoint compacts the index, not the file: it seals the
    run it covers into one anchor."""

    def test_stable_checkpoint_compacts_wal_into_snapshot(self):
        storage = NodeStorage(0, SimDisk())
        storage.record_epoch_start(0)
        for sn in range(4):
            storage.record_commit(sn, entry(sn), 0)
        storage.record_stable_checkpoint(fake_certificate(0, 3))
        assert storage.wal.sealed.last_sn == 3
        assert storage.sealed_count() == storage.durable_entry_count() == 4
        assert storage.wal.commit_count() == 0
        assert storage.stats()["seals"] == 1

    def test_incomplete_prefix_defers_compaction(self):
        """A stable checkpoint can outrun the local log (a quorum of peers
        votes first); sealing waits until the gap is filled."""
        storage = NodeStorage(0, SimDisk())
        storage.record_commit(0, entry(0), 0)
        storage.record_commit(2, entry(2), 0)  # sn 1 missing
        storage.record_stable_checkpoint(fake_certificate(0, 2))
        assert storage.wal.sealed is None
        assert storage.stats()["deferred_seals"] == 1
        # State transfer fills the hole; the next checkpoint retries.
        storage.record_commit(1, entry(1), 0)
        for sn in range(3, 6):
            storage.record_commit(sn, entry(sn), 1)
        storage.record_stable_checkpoint(fake_certificate(1, 5))
        assert storage.wal.sealed.last_sn == 5
        assert storage.stats()["seals"] == 1

    def test_stale_checkpoint_does_not_regress_snapshot(self):
        storage = NodeStorage(0, SimDisk())
        for sn in range(2):
            storage.record_commit(sn, entry(sn), 0)
        storage.record_stable_checkpoint(fake_certificate(0, 1))
        before = storage.wal.sealed
        storage.record_stable_checkpoint(fake_certificate(0, 0))
        assert storage.wal.sealed is before
        assert storage.stats()["seals"] == 1 and storage.stats()["deferred_seals"] == 0


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

    def test_restarts_append_no_certificate_they_read_back(self):
        """Recovery restores the certificates it reads from the file without
        appending them again: two restarts on one disk leave one checkpoint
        record per epoch (epoch 0's seals its run, epoch 1's is deferred)."""
        storage = NodeStorage(0, SimDisk())
        for sn in range(4):
            storage.record_commit(sn, entry(sn), 0)
        storage.record_stable_checkpoint(fake_certificate(0, 3))
        for sn in (4, 6, 7):  # sn 5 missing
            storage.record_commit(sn, entry(sn), 1)
        storage.record_stable_checkpoint(fake_certificate(1, 7))
        for _restart in range(2):
            storage.disk.crash()
            storage = storage.reopen()
            harness = RecoveryHarness(storage=storage)
            info = boot_from_storage(harness.node, storage, now=0.0)
            assert info.certificates_restored == 2
            harness.node.crash()
        checkpoints = Counter(
            record.epoch
            for record, _end in read_frames(storage.disk)
            if record.kind == RECORD_CHECKPOINT
        )
        assert checkpoints == {0: 1, 1: 1}


def deliver_epoch(node, epoch):
    """SB-deliver an empty batch at every position of ``epoch``."""
    for segment in node.manager.segments_for(epoch):
        for sn in segment.seq_nrs:
            node._sb_deliver(segment, sn, Batch.of(()))


class TestCatchupMode:
    def test_node_leaves_catchup_at_the_first_epoch_it_completes_uncertified(self):
        """A booted node stays in catch-up mode while it completes epochs
        the peers already certified, and leaves it by itself at the first
        epoch it completes before that epoch's stable certificate exists."""
        harness = RecoveryHarness()
        for sn in range(4):
            harness.storage.record_commit(sn, entry(sn), 0)
        node = harness.node
        info = boot_from_storage(node, harness.storage, now=0.0)
        assert info.resume_epoch == 1 and node.state_transfer.catching_up
        for epoch in (1, 2):
            node.checkpoints.restore_stable(fake_certificate(epoch, 4 * epoch + 3))
            deliver_epoch(node, epoch)
            assert node.current_epoch == epoch + 1 and node.state_transfer.catching_up
        deliver_epoch(node, 3)
        assert node.current_epoch == 4 and not node.state_transfer.catching_up
