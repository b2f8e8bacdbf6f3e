"""The delivered tail lives on disk: a replica drops a batch once it is
delivered and its WAL record is fsync'd, and reads it back from storage on
the paths that need a whole batch again.

* A stable checkpoint seals in memory and copies nothing, so ``wal.log``
  holds every commit record a replica ever made, as it was first encoded:
  the SHA-256 of every node's ``wal.log``, sampled through a crash-restart
  run, is pinned.
* A PBFT view change re-announces committed values the new primary no
  longer holds in memory: its NEW-VIEW reads them back from ``wal.log``.
* A restarted replica catches up from a peer that serves a stable epoch
  it has not sealed yet (its seal was deferred), from the index of
  unsealed commits.
"""

import hashlib

from repro.core.config import ISSConfig, WorkloadConfig
from repro.core.state_transfer import StateTransfer
from repro.core.types import is_nil
from repro.harness.invariants import check_invariants, delivered_trace, traces_agree
from repro.harness.runner import Deployment
from repro.pbft.pbft import PbftSB
from repro.runtime.faults import CrashSpec, RestartSpec
from repro.storage.wal import WAL_FILENAME, WriteAheadLog

#: SHA-256 over each node's ``wal.log`` at every quarter virtual second of
#: :func:`test_compaction_writes_the_bytes_re_encoding_wrote`'s run.  At
#: every sample point the file's commit records equal those the older
#: two-file layout held in its archive and its WAL together, byte for byte.
DISK_SHA256 = {
    (0, WAL_FILENAME): "1a19d3af4cda649d2580cbb0c79f0814a3c7a11fb0df943139c69405054c30e3",
    (1, WAL_FILENAME): "836b9862d808be3e551d5910299b1faeed5cca4608225541edf084291215760e",
    (2, WAL_FILENAME): "845cf3db99f094b6b91b05e703459a1a8eb84edb5e1d52e9902ac76417313906",
    (3, WAL_FILENAME): "644d006e5c69389bea782c76757402ecef321b60707bbe6ef3a63ddc201dc979",
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
            if storage.disk.size(WAL_FILENAME):
                with storage.disk.read(WAL_FILENAME) as stream:
                    hashes[node, WAL_FILENAME].update(stream.read())
            hashes[node, WAL_FILENAME].update(b"|")
        if deployment.sim.now < 6.0:
            deployment.sim.schedule(0.25, sample)

    deployment.sim.schedule(0.25, sample)
    result = deployment.run()
    assert result.storages[2].stats()["deferred_seals"] == 1
    # The samples catch commits that ran ahead of a checkpoint: unsealed
    # positions beyond one epoch.
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
    """Replica 0 restarts first and defers a seal (a quorum of peers made
    the epoch stable before its own log was whole); it then holds that
    stable epoch unsealed.  Replica 2 restarts inside that window and
    probes replica 0 first, which answers from its unsealed commits."""
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
    assert result.storages[0].stats()["deferred_seals"] >= 1
    assert result.nodes[2].state_transfer.entries_applied > 0
    assert len(result.report.recoveries) == 2
    _assert_safe(result)
