"""Durability tests for the file-backed storage (repro.storage.durable).

These pin the claims the live backend's recovery proof rests on:

* commits are fsync'd before the append returns (``always`` policy),
* a process reopening the same directory sees exactly what was appended,
* a torn WAL tail (crash mid-append) is detected and truncated on reopen,
  with every intact record before it preserved,
* compaction seals the newly covered run by *appending* it to the archive
  file and rewrites the WAL tail, and a **fresh process** reloads the
  combined state correctly,
* the archive is as crash-tolerant as the WAL: a kill between the archive
  fsync and the WAL rewrite, a torn or unsealed archive tail and a damaged
  frame in its middle all recover to a gap-free prefix, and
* a seal costs what it covers: bytes appended and objects encoded per seal
  do not grow with the history below it, and
* a directory in a format this version does not read is refused at open,
  never truncated as if it were a torn tail.
"""

import pickle
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import repro.net.deploy as deploy
import repro.storage.durable as durable
from repro.core.config import ISSConfig
from repro.core.types import Batch, CheckpointCertificate, Request, RequestId
from repro.runtime.codec import CODEC_VERSION, encode
from repro.net.deploy import LiveClusterSpec, durable_entries, durable_prefix_len, durable_seals
from repro.storage import RecoveryManager
from repro.storage.durable import (
    FSYNC_ALWAYS,
    FSYNC_NEVER,
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    DurableNodeStorage,
    FileSnapshotStore,
    FileWriteAheadLog,
    StorageFormatError,
    fsync_policy,
    iter_frames,
    read_wal_frames,
)
from repro.storage.wal import RECORD_CHECKPOINT, RECORD_COMMIT, WalRecord
from tests.test_storage import RecoveryHarness


def batch(client: int, timestamp: int) -> Batch:
    return Batch(
        requests=(
            Request(
                rid=RequestId(client=client, timestamp=timestamp), payload=b"x"
            ),
        )
    )


def certificate(epoch: int, last_sn: int) -> CheckpointCertificate:
    return CheckpointCertificate(
        epoch=epoch, last_sn=last_sn, log_root=b"root", signatures=()
    )


# ------------------------------------------------------------------ fsync
def test_fsync_on_every_commit_append(tmp_path):
    wal = FileWriteAheadLog(tmp_path / WAL_FILENAME, fsync=FSYNC_ALWAYS)
    for sn in range(5):
        wal.append_commit(sn, batch(0, sn), epoch=0)
    assert wal.fsyncs == 5
    wal.close()


def test_fsync_never_policy_skips_fsync(tmp_path):
    wal = FileWriteAheadLog(tmp_path / WAL_FILENAME, fsync=FSYNC_NEVER)
    wal.append_commit(0, batch(0, 0), epoch=0)
    assert wal.fsyncs == 0
    wal.close()
    # The bytes are still flushed: a clean close loses nothing.
    records, _offset, torn = read_wal_frames(tmp_path / WAL_FILENAME)
    assert len(records) == 1 and not torn


def test_fsync_policy_env(monkeypatch):
    monkeypatch.delenv("REPRO_FSYNC", raising=False)
    assert fsync_policy() == FSYNC_ALWAYS
    monkeypatch.setenv("REPRO_FSYNC", "never")
    assert fsync_policy() == FSYNC_NEVER
    # Misconfiguration degrades to the safe policy, never silently off.
    monkeypatch.setenv("REPRO_FSYNC", "sometimes")
    assert fsync_policy() == FSYNC_ALWAYS


# ----------------------------------------------------------------- reopen
def test_wal_reopen_round_trip(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = FileWriteAheadLog(path)
    for sn in range(4):
        wal.append_commit(sn, batch(1, sn), epoch=0)
    wal.append_epoch_start(1)
    wal.append_checkpoint(certificate(0, 3))
    wal.close()

    reopened = FileWriteAheadLog(path)
    assert not reopened.torn_tail_detected
    assert [sn for sn, _entry, _epoch in reopened.commits()] == [0, 1, 2, 3]
    assert len(reopened.checkpoints()) == 1
    # Appends after reopen extend the same file.
    reopened.append_commit(4, batch(1, 4), epoch=1)
    reopened.close()
    third = FileWriteAheadLog(path)
    assert [sn for sn, _entry, _epoch in third.commits()] == [0, 1, 2, 3, 4]
    third.close()


@pytest.mark.parametrize("chop", [1, 3, 7])
def test_torn_tail_truncated_on_reopen(tmp_path, chop):
    path = tmp_path / WAL_FILENAME
    wal = FileWriteAheadLog(path)
    for sn in range(6):
        wal.append_commit(sn, batch(2, sn), epoch=0)
    wal.close()

    # Simulate a crash mid-append: chop bytes off the last frame.
    data = path.read_bytes()
    path.write_bytes(data[:-chop])

    reopened = FileWriteAheadLog(path)
    assert reopened.torn_tail_detected
    assert [sn for sn, _entry, _epoch in reopened.commits()] == [0, 1, 2, 3, 4]
    reopened.close()
    # The truncation is durable: a further reopen sees a clean file.
    third = FileWriteAheadLog(path)
    assert not third.torn_tail_detected
    assert len(third.commits()) == 5
    third.close()


def test_corrupted_payload_detected_by_crc(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = FileWriteAheadLog(path)
    wal.append_commit(0, batch(3, 0), epoch=0)
    wal.append_commit(1, batch(3, 1), epoch=0)
    wal.close()

    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a byte inside the last frame's payload
    path.write_bytes(bytes(data))

    records, _offset, torn = read_wal_frames(path)
    assert torn and len(records) == 1


def _raw_frame(payload: bytes) -> bytes:
    """A WAL frame with a valid CRC around an arbitrary payload."""
    return (
        len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )


def test_undecodable_tail_is_torn(tmp_path):
    # Frames whose CRC is fine but whose payload is not a WalRecord body.
    for case, payload in enumerate(
        [
            bytes((CODEC_VERSION,)) + b"not a record",  # unknown type tag
            encode(batch(4, 1)),  # decodes, but to a Batch, not a WalRecord
            encode(WalRecord(RECORD_COMMIT, 0, 1, batch(4, 1)))[:-2],  # short body
            b"",  # a zero-filled tail reads as an empty frame with CRC 0
        ]
    ):
        path = tmp_path / f"{case}.log"
        wal = FileWriteAheadLog(path)
        wal.append_commit(0, batch(4, 0), epoch=0)
        wal.close()
        with open(path, "ab") as fh:
            fh.write(_raw_frame(payload))
        records, _offset, torn = read_wal_frames(path)
        assert torn and len(records) == 1, case


@pytest.mark.parametrize("filename", [WAL_FILENAME, SNAPSHOT_FILENAME])
@pytest.mark.parametrize("foreign", ["pickle-format", "future-version"])
def test_a_directory_in_another_format_is_refused_not_truncated(tmp_path, filename, foreign):
    """Releases before the codec wrote the same ``>II`` frames around a
    pickled WalRecord; an intact frame like that (or one of a codec version
    from the future) was not torn by a crash, so opening the directory
    fails loudly and leaves every byte where it was."""
    directory = tmp_path / "node0"
    directory.mkdir()
    record = WalRecord(RECORD_COMMIT, 0, 0, batch(9, 0))
    if foreign == "pickle-format":
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    else:
        payload = bytes((CODEC_VERSION + 1,)) + encode(record)[1:]
    path = directory / filename
    path.write_bytes(_raw_frame(payload) * 3)
    before = path.read_bytes()
    with pytest.raises(StorageFormatError, match="release before the codec|codec version"):
        DurableNodeStorage(0, directory)
    assert path.read_bytes() == before


# ------------------------------------------------------- compaction + reload
def _fill_storage(storage: DurableNodeStorage) -> None:
    for sn in range(8):
        storage.record_commit(sn, batch(5, sn), epoch=0)
    storage.record_stable_checkpoint(certificate(0, 5))
    for sn in range(8, 10):
        storage.record_commit(sn, batch(5, sn), epoch=1)


def test_compaction_snapshot_plus_wal_reload(tmp_path):
    storage = DurableNodeStorage(0, tmp_path / "node0")
    _fill_storage(storage)
    assert storage.compactions == 1
    assert storage.latest_snapshot().last_sn == 5
    assert storage.durable_entry_count() == 10
    storage.close()

    reloaded = DurableNodeStorage(0, tmp_path / "node0")
    assert reloaded.has_state()
    assert reloaded.latest_snapshot().last_sn == 5
    assert reloaded.durable_entry_count() == 10
    # The WAL holds exactly the post-compaction tail.
    assert [sn for sn, _e, _ep in reloaded.wal.commits()] == [6, 7, 8, 9]
    reloaded.close()


def test_half_written_snapshot_degrades_to_wal_only(tmp_path):
    directory = tmp_path / "node0"
    storage = DurableNodeStorage(0, directory)
    for sn in range(3):
        storage.record_commit(sn, batch(6, sn), epoch=0)
    storage.close()
    # Garbage where the archive should be (a crash during the very first
    # seal) must not poison recovery: it reads as "nothing sealed yet" and
    # is truncated away.
    (directory / SNAPSHOT_FILENAME).write_bytes(b"\x80garbage")
    reloaded = DurableNodeStorage(0, directory)
    assert reloaded.latest_snapshot() is None
    assert reloaded.snapshots.unsealed_tail_detected
    assert (directory / SNAPSHOT_FILENAME).stat().st_size == 0
    assert reloaded.durable_entry_count() == 3
    reloaded.close()


def test_fresh_process_reloads_snapshot_and_wal(tmp_path):
    storage = DurableNodeStorage(0, tmp_path / "node0")
    _fill_storage(storage)
    expected = storage.durable_entry_count()
    storage.close()

    script = (
        "from repro.storage.durable import DurableNodeStorage\n"
        f"s = DurableNodeStorage(0, {str(tmp_path / 'node0')!r})\n"
        "print(s.has_state(), s.durable_entry_count(), "
        "s.latest_snapshot().last_sn)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["True", str(expected), "5"]


def test_codec_frames_round_trip_exact_records(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = FileWriteAheadLog(path)
    entry = batch(7, 0)
    wal.append_commit(0, entry, epoch=2)
    wal.append_checkpoint(certificate(2, 0))
    wal.append_membership(3, (0, 1, 2, 4))
    wal.close()
    records, _offset, _torn = read_wal_frames(path)
    assert records == list(wal.records())
    assert records[0].sn == 0
    assert records[0].epoch == 2
    assert records[0].entry == entry
    assert [encode(record) for record in records] == [encode(r) for r in wal.records()]


# ------------------------------------------------------- the sealed archive
EPOCH = 4


def _run_epochs(storage: DurableNodeStorage, first: int, count: int) -> None:
    """Commit and checkpoint ``count`` whole epochs starting at ``first``."""
    for epoch in range(first, first + count):
        storage.record_epoch_start(epoch)
        for sn in range(epoch * EPOCH, (epoch + 1) * EPOCH):
            storage.record_commit(sn, batch(epoch, sn), epoch=epoch)
        storage.record_stable_checkpoint(certificate(epoch, (epoch + 1) * EPOCH - 1))


def _recovered(directory) -> RecoveryHarness:
    """A fresh node recovered from ``directory``, as a restarted process does."""
    harness = RecoveryHarness(epoch_length=EPOCH, storage=DurableNodeStorage(0, directory))
    harness.info = RecoveryManager(harness.storage).recover(harness.node, now=1.0)
    return harness


def _delivered_rids(harness: RecoveryHarness):
    return [(d.request.rid.client, d.request.rid.timestamp) for d in harness.delivered]


def test_archive_is_wal_frames_sealed_by_the_certificate(tmp_path):
    storage = DurableNodeStorage(0, tmp_path / "node0")
    _run_epochs(storage, 0, 2)
    storage.close()
    records = [r for r, _end in iter_frames(tmp_path / "node0" / SNAPSHOT_FILENAME)]
    kinds = [r.kind for r in records]
    assert kinds == ([RECORD_COMMIT] * EPOCH + [RECORD_CHECKPOINT]) * 2
    assert [r.sn for r in records if r.kind == RECORD_COMMIT] == list(range(2 * EPOCH))
    assert [r.certificate.last_sn for r in records if r.kind == RECORD_CHECKPOINT] == [3, 7]
    # The same reader serves both files; entries read back match what was sealed.
    assert read_wal_frames(tmp_path / "node0" / SNAPSHOT_FILENAME)[2] is False
    reopened = FileSnapshotStore(tmp_path / "node0" / SNAPSHOT_FILENAME)
    assert reopened.entry_count() == 8 and reopened.latest().epoch == 1
    assert [sn for sn, _e, _ep in reopened.entries(start=3)] == [3, 4, 5, 6, 7]
    assert reopened.entry_at(5) == batch(1, 5)
    assert reopened.entries_of([6, 1]) == [(6, batch(1, 6)), (1, batch(0, 1))]
    with pytest.raises(KeyError):
        reopened.entry_at(8)
    with pytest.raises(KeyError):
        reopened.entries_of([7, 8])


def test_kill_between_archive_fsync_and_wal_rewrite_recovers_same_prefix(
    tmp_path, monkeypatch
):
    """The sealed run is in both files; replay is idempotent."""
    control = DurableNodeStorage(0, tmp_path / "control")
    _run_epochs(control, 0, 3)
    control.close()

    victim = DurableNodeStorage(0, tmp_path / "victim")
    _run_epochs(victim, 0, 2)

    class Killed(Exception):
        pass

    def die(self, sn_bound, epoch_bound):
        raise Killed()

    monkeypatch.setattr(FileWriteAheadLog, "truncate_below", die)
    with pytest.raises(Killed):
        _run_epochs(victim, 2, 1)  # dies after the archive fsync of epoch 2
    monkeypatch.undo()
    victim.wal._fh.close()  # the process is gone; nothing else is flushed

    wal_sns = [
        r.sn
        for r in read_wal_frames(tmp_path / "victim" / WAL_FILENAME)[0]
        if r.kind == RECORD_COMMIT
    ]
    sealed_sns = [
        r.sn
        for r, _end in iter_frames(tmp_path / "victim" / SNAPSHOT_FILENAME)
        if r.kind == RECORD_COMMIT
    ]
    assert set(wal_sns) & set(sealed_sns) == set(range(2 * EPOCH, 3 * EPOCH))

    expected, recovered = _recovered(tmp_path / "control"), _recovered(tmp_path / "victim")
    assert recovered.info.resume_epoch == expected.info.resume_epoch == 3
    assert _delivered_rids(recovered) == _delivered_rids(expected)
    assert len(set(_delivered_rids(recovered))) == len(recovered.delivered) == 3 * EPOCH
    # Reopening finished the interrupted compaction: nothing is counted twice.
    assert recovered.storage.durable_entry_count() == 3 * EPOCH
    assert recovered.storage.wal.commits() == []
    recovered.storage.close()
    expected.storage.close()


@pytest.mark.parametrize("tail", ["torn-frame", "unsealed-run", "both"])
def test_torn_or_unsealed_archive_tail_is_dropped_and_sealing_resumes(tmp_path, tail):
    directory = tmp_path / "node0"
    storage = DurableNodeStorage(0, directory)
    _run_epochs(storage, 0, 2)
    # Epoch 2 is committed (it is in the WAL) but its seal never completed.
    for sn in range(2 * EPOCH, 3 * EPOCH):
        storage.record_commit(sn, batch(2, sn), epoch=2)
    storage.close()
    archive = directory / SNAPSHOT_FILENAME
    sealed_size = archive.stat().st_size
    with open(archive, "ab") as fh:
        if tail in ("unsealed-run", "both"):
            for sn in range(2 * EPOCH, 2 * EPOCH + 2):  # commit frames, no marker
                fh.write(durable._frame(durable.WalRecord(RECORD_COMMIT, 2, sn, batch(2, sn))))
        if tail in ("torn-frame", "both"):
            fh.write(durable._frame(durable.WalRecord(RECORD_COMMIT, 2, 99, batch(2, 99)))[:-3])

    reopened = DurableNodeStorage(0, directory)
    assert reopened.snapshots.unsealed_tail_detected
    assert archive.stat().st_size == sealed_size
    assert reopened.latest_snapshot().last_sn == 2 * EPOCH - 1
    assert reopened.durable_entry_count() == 3 * EPOCH  # the run is still in the WAL
    # A later seal appends cleanly after the truncation point...
    reopened.record_stable_checkpoint(certificate(2, 3 * EPOCH - 1))
    _run_epochs(reopened, 3, 1)
    reopened.close()
    # ...and a further reopen reads four clean sealed runs.
    final = DurableNodeStorage(0, directory)
    assert not final.snapshots.unsealed_tail_detected
    assert final.latest_snapshot().last_sn == 4 * EPOCH - 1
    assert [sn for sn, _e, _ep in final.snapshots.entries()] == list(range(4 * EPOCH))
    final.close()


def test_damaged_frame_in_the_middle_of_the_archive_never_leaves_a_silent_gap(tmp_path):
    directory = tmp_path / "node0"
    storage = DurableNodeStorage(0, directory)
    _run_epochs(storage, 0, 4)
    for sn in range(4 * EPOCH, 4 * EPOCH + 2):  # the WAL tail above the last seal
        storage.record_commit(sn, batch(4, sn), epoch=4)
    lost = list(storage.snapshots.entries(start=EPOCH))
    storage.close()

    # Flip a payload byte of a commit frame inside the *second* sealed run.
    archive = directory / SNAPSHOT_FILENAME
    ends = [end for _r, end in iter_frames(archive)]
    data = bytearray(archive.read_bytes())
    data[ends[EPOCH + 2] - 1] ^= 0xFF
    archive.write_bytes(bytes(data))

    # Reopen: the archive ends at the last seal before the damage.
    harness = _recovered(directory)
    storage = harness.storage
    assert storage.snapshots.unsealed_tail_detected
    assert storage.latest_snapshot().last_sn == EPOCH - 1
    assert archive.stat().st_size == ends[EPOCH]
    # Recovery delivers exactly that prefix and resumes in the first damaged
    # epoch, knowing precisely which positions it lacks — no silent hole.
    assert harness.info.resume_epoch == 1
    assert _delivered_rids(harness) == [(0, sn) for sn in range(EPOCH)]
    assert harness.node.log.missing(range(4 * EPOCH + 2)) == list(range(EPOCH, 4 * EPOCH))
    spec = LiveClusterSpec(config=ISSConfig(num_nodes=4), data_dir=str(tmp_path), base_port=1)
    assert durable_prefix_len(spec, 0) == EPOCH

    # State transfer refills the lost epochs through the ordinary commit
    # path; the next checkpoints then seal one contiguous run again.
    for sn, entry, epoch in lost:
        storage.record_commit(sn, entry, epoch)
    storage.record_stable_checkpoint(certificate(3, 4 * EPOCH - 1))
    assert storage.latest_snapshot().last_sn == 4 * EPOCH - 1
    storage.close()
    healed = DurableNodeStorage(0, directory)
    assert not healed.snapshots.unsealed_tail_detected
    assert [sn for sn, _e, _ep in healed.snapshots.entries()] == list(range(4 * EPOCH))
    assert [sn for sn, _e, _ep in healed.wal.commits()] == [4 * EPOCH, 4 * EPOCH + 1]
    assert durable_prefix_len(spec, 0) == 4 * EPOCH + 2
    healed.close()


def test_a_seal_costs_what_it_covers(tmp_path, monkeypatch):
    """Bytes appended per seal are constant over equal epochs, and no single
    codec encode ever sees more than one epoch of entries."""
    seen = []
    encode_into = durable.encode_into

    def counting_encode_into(out, obj):
        entries = getattr(obj, "entries", None)  # a whole-prefix snapshot
        seen.append(len(entries) if entries is not None else 1)
        return encode_into(out, obj)

    monkeypatch.setattr(durable, "encode_into", counting_encode_into)
    directory = tmp_path / "node0"
    storage = DurableNodeStorage(0, directory)
    archive = directory / SNAPSHOT_FILENAME
    sizes = [0]
    for epoch in range(8):
        _run_epochs(storage, epoch, 1)
        sizes.append(archive.stat().st_size)
    storage.close()
    appended = [after - before for before, after in zip(sizes, sizes[1:])]
    assert len(appended) == 8 and min(appended) > 0
    assert max(appended) - min(appended) <= 8  # ± the certificate's varints
    assert len(seen) >= 8 * (EPOCH + 1) and max(seen) <= EPOCH


# ------------------------------------------------------ auditing a live node
def test_durable_entries_survives_a_compaction_between_its_two_reads(
    tmp_path, monkeypatch
):
    spec = LiveClusterSpec(config=ISSConfig(num_nodes=4), data_dir=str(tmp_path), base_port=1)
    storage = DurableNodeStorage(0, spec.node_dir(0))
    for sn in range(8):
        storage.record_commit(sn, batch(5, sn), epoch=0)
    wal, archive = (Path(spec.node_dir(0)) / name for name in (WAL_FILENAME, SNAPSHOT_FILENAME))

    def commits(path):
        return {r.sn for r, _end in iter_frames(path) if r.kind == RECORD_COMMIT}

    # By hand, archive first: the replica compacts between the two reads and
    # the union has a hole where the sealed run moved.
    before = commits(archive)
    storage.record_stable_checkpoint(certificate(0, 5))
    assert before | commits(wal) == {6, 7}

    # durable_entries reads the WAL first; force a compaction right between
    # its two reads and nothing goes missing.
    for sn in range(8, 12):
        storage.record_commit(sn, batch(5, sn), epoch=1)
    reads = []

    def compacting_reader(path, offset=0):
        yield from iter_frames(path, offset)
        reads.append(path.name)
        if len(reads) == 1:
            storage.record_stable_checkpoint(certificate(1, 9))

    monkeypatch.setattr(deploy, "iter_frames", compacting_reader)
    assert sorted(durable_entries(spec, 0)) == list(range(12))
    assert reads == [WAL_FILENAME, SNAPSHOT_FILENAME]
    assert durable_seals(spec, 0) == 2
    storage.close()
