"""The delivered tail lives on disk: a replica drops a batch once it is
delivered and its WAL record is fsync'd, and reads it back from storage on
the paths that need a whole batch again.

* Compaction copies frames instead of re-encoding records, and writes the
  very bytes re-encoding wrote: the SHA-256 of every node's ``wal.log`` and
  ``snapshot.bin``, sampled through a crash-restart run, is pinned.
* A PBFT view change re-announces committed values the new primary no
  longer holds in memory: its NEW-VIEW reads them back from ``wal.log``.
* A restarted replica catches up from a peer that serves a stable epoch
  still in its ``wal.log`` (its compaction was deferred), not from its
  archive.
"""

import hashlib

from repro.core.config import ISSConfig, WorkloadConfig
from repro.core.state_transfer import StateTransfer
from repro.core.types import is_nil
from repro.harness.invariants import check_invariants, delivered_trace, traces_agree
from repro.harness.runner import Deployment
from repro.pbft.pbft import PbftSB
from repro.runtime.faults import CrashSpec, RestartSpec
from repro.storage.snapshot import SNAPSHOT_FILENAME
from repro.storage.wal import WAL_FILENAME, WriteAheadLog

FILES = (WAL_FILENAME, SNAPSHOT_FILENAME)

#: SHA-256 over each file's content at every quarter virtual second of
#: :func:`test_compaction_writes_the_bytes_re_encoding_wrote`'s run, recorded
#: with a compaction that decodes and re-encodes every record it moves.
DISK_SHA256 = {
    (0, WAL_FILENAME): "0dd0a2baecd6e32ac60bee1be95a25e333eb36f15f44b77bbfd4062ce4f60d6b",
    (0, SNAPSHOT_FILENAME): "051559ed46eac85cb96e0a8d8a6ed4e61e55e6fed2f4f4a05af23d559d01c4cc",
    (1, WAL_FILENAME): "1557b85eeb49f323534bf9382c86705def5065a8dde602288f25bd91061a0270",
    (1, SNAPSHOT_FILENAME): "051559ed46eac85cb96e0a8d8a6ed4e61e55e6fed2f4f4a05af23d559d01c4cc",
    (2, WAL_FILENAME): "4cf28576e6bc0039e8d92247d130f96a753ff1960f770f5d2bdcd3b005e9b324",
    (2, SNAPSHOT_FILENAME): "0bf36d6bea9b7b8ab3a34ac4202929e9ff48f7d4f0735bdbc0127193c2f39c24",
    (3, WAL_FILENAME): "740511faf2a74f47f4646ddfdc044555ca5ed26be0dc06a1e5a88f268c95837f",
    (3, SNAPSHOT_FILENAME): "3d4d00999f11b7edff69968924066acecbb683ccb562d09a47cc184eed6dd812",
}


def _config(num_nodes, random_seed, **overrides):
    return ISSConfig(
        num_nodes=num_nodes,
        epoch_length=8,
        max_batch_timeout=0.25,
        random_seed=random_seed,
        **overrides,
    )


def _workload(duration):
    return WorkloadConfig(num_clients=8, total_rate=300.0, duration=duration)


def _spy_wal_reads(monkeypatch, owner, method):
    """Record the ``(sn, entry)`` of every WAL read-back made inside
    ``owner.method``."""
    reads, inside = [], []
    read_back = WriteAheadLog.entry_at

    def entry_at(self, sn):
        entry = read_back(self, sn)
        if inside:
            reads.append((sn, entry))
        return entry

    wrapped = getattr(owner, method)

    def spy(*args, **kwargs):
        inside.append(True)
        try:
            return wrapped(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(WriteAheadLog, "entry_at", entry_at)
    monkeypatch.setattr(owner, method, spy)
    return reads


def _assert_safe(result):
    live = [node for node in result.nodes if not node.crashed]
    assert traces_agree([delivered_trace(node) for node in live])
    assert check_invariants(result) == []


def test_compaction_writes_the_bytes_re_encoding_wrote():
    deployment = Deployment(
        _config(4, random_seed=3),
        workload=_workload(6.0),
        faults=[
            CrashSpec(node=2, trigger="at-time", time=1.5),
            RestartSpec(node=2, time=3.5),
        ],
    )
    hashes = {key: hashlib.sha256() for key in DISK_SHA256}
    wal_commits = []

    def sample():
        for node in range(4):
            storage = deployment.storages[node]
            wal_commits.append(storage.wal.commit_count())
            for name in FILES:
                if storage.disk.size(name):
                    with storage.disk.read(name) as stream:
                        hashes[node, name].update(stream.read())
                hashes[node, name].update(b"|")
        if deployment.sim.now < 6.0:
            deployment.sim.schedule(0.25, sample)

    deployment.sim.schedule(0.25, sample)
    result = deployment.run()
    assert result.storages[2].stats()["deferred_compactions"] == 1
    # The samples catch commits that ran ahead of a checkpoint, which the
    # WAL rewrite copies into the new file.
    assert max(wal_commits) > 8
    assert {key: h.hexdigest() for key, h in hashes.items()} == DISK_SHA256


def test_new_view_re_announces_committed_values_read_back_from_storage(monkeypatch):
    """Segment leader 1 crashes for good; the others change view on its
    segment, and the new primary re-announces the slots 1 committed before
    the crash from ``wal.log``: they were delivered, so no longer in RAM."""
    announced = _spy_wal_reads(monkeypatch, PbftSB, "_send_new_view")
    deployment = Deployment(
        _config(4, random_seed=1, view_change_timeout=1.0),
        workload=_workload(5.0),
        faults=[CrashSpec(node=1, trigger="at-time", time=1.5)],
        durable_storage=True,
    )
    result = deployment.run()
    assert any(not is_nil(entry) for _sn, entry in announced)
    for node in result.nodes:
        if not node.crashed:
            for sn, entry in announced:
                assert node.log.entry(sn) == entry
    _assert_safe(result)


def test_a_restart_catches_up_from_a_peer_serving_its_tail_from_the_wal(monkeypatch):
    """Replica 0 restarts first and defers a compaction (2f+1 peers sealed
    the epoch before its own log was whole); it then holds that stable
    epoch in ``wal.log`` only.  Replica 2 restarts inside that window and
    probes replica 0 first, which answers from ``wal.log``."""
    served = _spy_wal_reads(monkeypatch, StateTransfer, "build_responses")
    deployment = Deployment(
        _config(7, random_seed=3),
        workload=_workload(7.0),
        faults=[
            CrashSpec(node=0, trigger="at-time", time=1.5),
            RestartSpec(node=0, time=3.0),
            CrashSpec(node=2, trigger="at-time", time=2.8),
            RestartSpec(node=2, time=3.1),
        ],
        durable_storage=True,
    )
    result = deployment.run()
    assert served
    assert result.storages[0].stats()["deferred_compactions"] >= 1
    assert result.nodes[2].state_transfer.entries_applied > 0
    assert len(result.report.recoveries) == 2
    _assert_safe(result)
