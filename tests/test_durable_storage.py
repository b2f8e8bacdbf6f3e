"""Durability tests for the storage stack over its file seam.

These pin the claims every recovery — a ``kill -9``-ed live process and a
restarted simulated node alike — rests on:

* commits are fsync'd before the append returns,
* reopening a disk sees exactly what was appended,
* a torn tail (crash mid-append) is detected and truncated on reopen, with
  every intact record before it preserved,
* a node directory holds one file, ``wal.log``: a stable checkpoint appends
  its certificate and seals the run it covers in memory, and a reopen seals
  the same runs again,
* a damaged frame in the middle of the log recovers to a prefix whose every
  missing position the node knows — never a silent hole,
* a stable checkpoint writes one frame and one fsync whatever the size of
  the epoch it closes,
* counters count appends and seals, never replayed records, and
* a directory in a format this version does not read — another codec
  version, or the older layout's ``snapshot.bin`` beside ``wal.log`` — is
  refused at open, never truncated as if it were a torn tail.

Every test taking the ``disk`` or ``make_disk`` fixture runs twice: at
module level on an :class:`OsDisk` (a real directory), and in
:class:`TestSimDisk` on the simulator's :class:`SimDisk` — one test body,
both disks.  Tests that need a real directory or a second process stay
:class:`OsDisk`-only.
"""

import pickle
import subprocess
import sys
import zlib

import pytest

from repro.core.config import ISSConfig
from repro.core.types import Batch, CheckpointCertificate, Request, RequestId
from repro.runtime.codec import CODEC_VERSION, encode
from repro.net.deploy import LiveClusterSpec, durable_prefix_len, durable_seals
from repro.storage import NodeStorage, RecoveryManager
from repro.storage.disk import OsDisk, SimDisk
from repro.storage.durable import (
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    DurableNodeStorage,
    StorageFormatError,
)
from repro.storage.wal import (
    RECORD_CHECKPOINT,
    RECORD_COMMIT,
    RECORD_EPOCH_START,
    WalRecord,
    WriteAheadLog,
    frame,
    read_frames,
)
from tests.test_storage import RecoveryHarness, commit_sns


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


@pytest.fixture
def make_disk(tmp_path):
    """``make_disk(name)``: a fresh disk; here a directory under ``tmp_path``."""
    return lambda name: OsDisk(tmp_path / name)


@pytest.fixture
def disk(make_disk):
    """Node 0's disk (``tmp_path / "node0"`` on the real file system)."""
    return make_disk("node0")


def raw(disk) -> bytes:
    """Every byte of the log."""
    with disk.read(WAL_FILENAME) as stream:
        return stream.read()


def rewrite(disk, data: bytes) -> None:
    """Damage the log in place: its bytes become ``data``, durably."""
    disk.truncate(WAL_FILENAME, 0)
    disk.append(WAL_FILENAME, data)
    disk.fsync(WAL_FILENAME)
    disk.close()


def scan(disk):
    """``(intact records, torn)`` of the log, decoded record by record."""
    records, good_offset = [], 0
    for record, good_offset in read_frames(disk):
        records.append(record)
    return records, good_offset < disk.size(WAL_FILENAME)


def crash(disk) -> None:
    """The node dies: a ``SimDisk`` keeps only what was synced; an
    ``OsDisk`` keeps what the process wrote (a ``kill -9`` spares the page
    cache) and its handles go with the process."""
    if isinstance(disk, SimDisk):
        disk.crash()
    else:
        disk.close()


# ------------------------------------------------------------------ fsync
def test_fsync_on_every_commit_append(disk, monkeypatch):
    synced = []
    fsync = disk.fsync
    monkeypatch.setattr(disk, "fsync", lambda name: (synced.append(name), fsync(name)))
    wal = WriteAheadLog(disk)
    for sn in range(5):
        wal.append_commit(sn, batch(0, sn), epoch=0)
    assert synced == [WAL_FILENAME] * 5
    crash(disk)
    assert commit_sns(WriteAheadLog(disk)) == list(range(5))
    disk.close()


def test_fsync_never_is_refused(tmp_path):
    """Every append is synced: ``"always"`` is the only value ``fsync=``
    takes, on the storage and on the live cluster spec."""
    with pytest.raises(ValueError, match="fixed at 'always'"):
        DurableNodeStorage(0, tmp_path / "node0", fsync="never")
    with pytest.raises(ValueError, match="fixed at 'always'"):
        LiveClusterSpec(
            config=ISSConfig(num_nodes=4), data_dir=str(tmp_path), base_port=1,
            fsync="never",
        )
    DurableNodeStorage(0, tmp_path / "node0", fsync="always").close()


# ----------------------------------------------------------------- reopen
def test_wal_reopen_round_trip(disk):
    wal = WriteAheadLog(disk)
    for sn in range(4):
        wal.append_commit(sn, batch(1, sn), epoch=0)
    wal.append_epoch_start(1)
    wal.append_checkpoint(certificate(0, 3))
    disk.close()

    reopened = WriteAheadLog(disk)
    assert not reopened.torn_tail_detected
    assert commit_sns(reopened) == [0, 1, 2, 3]
    assert [r.kind for r in reopened.records()].count(RECORD_CHECKPOINT) == 1
    assert reopened.sealed == certificate(0, 3)
    # Appends after reopen extend the same file.
    reopened.append_commit(4, batch(1, 4), epoch=1)
    disk.close()
    third = WriteAheadLog(disk)
    assert commit_sns(third) == [0, 1, 2, 3, 4]
    disk.close()


@pytest.mark.parametrize("chop", [1, 3, 7])
def test_torn_tail_truncated_on_reopen(disk, chop):
    wal = WriteAheadLog(disk)
    for sn in range(6):
        wal.append_commit(sn, batch(2, sn), epoch=0)
    disk.close()

    # Simulate a crash mid-append: chop bytes off the last frame.
    disk.truncate(WAL_FILENAME, disk.size(WAL_FILENAME) - chop)

    reopened = WriteAheadLog(disk)
    assert reopened.torn_tail_detected
    assert commit_sns(reopened) == [0, 1, 2, 3, 4]
    crash(disk)
    # The truncation is durable: a further reopen sees a clean file.
    third = WriteAheadLog(disk)
    assert not third.torn_tail_detected
    assert len(commit_sns(third)) == 5
    disk.close()


def test_corrupted_payload_detected_by_crc(disk):
    wal = WriteAheadLog(disk)
    wal.append_commit(0, batch(3, 0), epoch=0)
    wal.append_commit(1, batch(3, 1), epoch=0)
    disk.close()

    data = bytearray(raw(disk))
    data[-1] ^= 0xFF  # flip a byte inside the last frame's payload
    rewrite(disk, bytes(data))

    records, torn = scan(disk)
    assert torn and len(records) == 1
    assert WriteAheadLog(disk).torn_tail_detected
    disk.close()


def _raw_frame(payload: bytes) -> bytes:
    """A WAL frame with a valid CRC around an arbitrary payload."""
    return (
        len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )


def test_undecodable_tail_is_torn(make_disk):
    """Frames whose CRC is fine but whose payload is not a WalRecord body.
    Opening reads a record's leading fields only, so it truncates every case
    but the short body, whose fields are intact; decoding refuses that one,
    since no crash leaves an intact CRC around a short body."""
    for case, payload in enumerate(
        [
            bytes((CODEC_VERSION,)) + b"not a record",  # unknown type tag
            encode(batch(4, 1)),  # decodes, but to a Batch, not a WalRecord
            encode(WalRecord(RECORD_COMMIT, 0, 1, batch(4, 1)))[:-2],  # short body
            b"",  # a zero-filled tail reads as an empty frame with CRC 0
        ]
    ):
        disk = make_disk(f"case{case}")
        wal = WriteAheadLog(disk)
        wal.append_commit(0, batch(4, 0), epoch=0)
        disk.append(WAL_FILENAME, _raw_frame(payload))
        disk.fsync(WAL_FILENAME)
        records, torn = scan(disk)
        assert torn and len(records) == 1, case
        disk.close()
        wal = WriteAheadLog(disk)
        if case == 2:
            assert not wal.torn_tail_detected
            with pytest.raises(StorageFormatError, match="does not decode"):
                list(wal.records())
        else:
            assert wal.torn_tail_detected, case
        disk.close()


@pytest.mark.parametrize("filename", [WAL_FILENAME, SNAPSHOT_FILENAME])
@pytest.mark.parametrize("foreign", ["pickle-format", "future-version"])
def test_a_directory_in_another_format_is_refused_not_truncated(tmp_path, filename, foreign):
    """Releases before the codec wrote the same ``>II`` frames around a
    pickled WalRecord; an intact frame like that (or one of a codec version
    from the future) was not torn by a crash, so opening the directory
    fails loudly and leaves every byte where it was.  So does any
    ``snapshot.bin``, the older layout's second file."""
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
    with pytest.raises(
        StorageFormatError, match="release before the codec|codec version|older layout"
    ):
        DurableNodeStorage(0, directory)
    assert path.read_bytes() == before


def test_a_directory_of_the_two_file_layout_is_refused_not_truncated(tmp_path):
    """A node directory holds ``wal.log`` only.  One that also holds a
    ``snapshot.bin`` — the older layout's archive of sealed runs, their
    commits moved out of ``wal.log`` — is outside input: opening it raises
    and truncates nothing, not even a torn tail of ``wal.log``."""
    directory = tmp_path / "node0"
    storage = DurableNodeStorage(0, directory)
    _run_epochs(storage, 0, 2)
    storage.close()
    assert sorted(path.name for path in directory.iterdir()) == [WAL_FILENAME]

    sealed = raw(OsDisk(directory))
    (directory / SNAPSHOT_FILENAME).write_bytes(sealed)
    with open(directory / WAL_FILENAME, "ab") as wal:
        wal.write(frame(WalRecord(RECORD_COMMIT, 2, 8, batch(2, 8)))[:-3])
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    with pytest.raises(StorageFormatError, match="older layout"):
        DurableNodeStorage(0, directory)
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before


# ---------------------------------------------------------- sealing + reload
def _fill_storage(storage: NodeStorage) -> None:
    for sn in range(8):
        storage.record_commit(sn, batch(5, sn), epoch=0)
    storage.record_stable_checkpoint(certificate(0, 5))
    for sn in range(8, 10):
        storage.record_commit(sn, batch(5, sn), epoch=1)


def test_compaction_snapshot_plus_wal_reload(disk):
    """A stable checkpoint seals the positions it covers; a reopen seals the
    same run again and answers for every position, sealed or not."""
    storage = NodeStorage(0, disk)
    _fill_storage(storage)
    assert storage.stats()["seals"] == 1
    assert storage.sealed_count() == 6
    assert storage.durable_entry_count() == 10
    storage.close()

    reloaded = NodeStorage(0, disk)
    assert reloaded.has_state()
    assert reloaded.sealed_count() == 6
    assert reloaded.durable_entry_count() == 10
    # Only the positions above the sealed run keep an index slot.
    assert reloaded.wal.commit_count() == 4
    assert reloaded.entries_of(range(10)) == [(sn, batch(5, sn)) for sn in range(10)]
    reloaded.close()


def test_reopen_counts_appends_not_replayed_records(disk):
    """Opening replays records but appends none; ``reopen()`` — the next
    incarnation on the same disk — carries the node's lifetime counters."""
    storage = NodeStorage(0, disk)
    _run_epochs(storage, 0, 2)  # per epoch: start, 4 commits, checkpoint
    storage.record_commit(2 * EPOCH, batch(2, 2 * EPOCH), epoch=2)
    lifetime = {"wal_appended_total": 13, "seals": 2}
    assert {key: storage.stats()[key] for key in lifetime} == lifetime
    storage.close()

    fresh = NodeStorage(0, disk)
    assert len(fresh.wal) == 13 and fresh.durable_entry_count() == 2 * EPOCH + 1
    assert fresh.sealed_count() == 2 * EPOCH
    assert fresh.wal.appended_total == fresh.wal.seals_total == 0
    fresh.close()

    next_incarnation = storage.reopen()
    assert next_incarnation is not storage and next_incarnation.disk is disk
    assert {key: next_incarnation.stats()[key] for key in lifetime} == lifetime
    next_incarnation.record_commit(2 * EPOCH + 1, batch(2, 2 * EPOCH + 1), epoch=2)
    assert next_incarnation.wal.appended_total == 14
    next_incarnation.close()


def test_fresh_process_reloads_snapshot_and_wal(tmp_path):
    storage = DurableNodeStorage(0, tmp_path / "node0")
    _fill_storage(storage)
    expected = storage.durable_entry_count()
    storage.close()

    script = (
        "from repro.storage.durable import DurableNodeStorage\n"
        f"s = DurableNodeStorage(0, {str(tmp_path / 'node0')!r})\n"
        "print(s.has_state(), s.durable_entry_count(), s.sealed_count() - 1)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["True", str(expected), "5"]


def test_codec_frames_round_trip_exact_records(disk):
    wal = WriteAheadLog(disk)
    entry = batch(7, 0)
    wal.append_commit(0, entry, epoch=2)
    wal.append_checkpoint(certificate(2, 0))
    wal.append_membership(3, (0, 1, 2, 4))
    disk.close()
    records, _torn = scan(disk)
    assert records == list(wal.records())
    assert records[0].sn == 0
    assert records[0].epoch == 2
    assert records[0].entry == entry
    assert [encode(record) for record in records] == [encode(r) for r in wal.records()]


# ------------------------------------------------------------- sealed runs
EPOCH = 4


def _run_epochs(storage: NodeStorage, first: int, count: int) -> None:
    """Commit and checkpoint ``count`` whole epochs starting at ``first``."""
    for epoch in range(first, first + count):
        storage.record_epoch_start(epoch)
        for sn in range(epoch * EPOCH, (epoch + 1) * EPOCH):
            storage.record_commit(sn, batch(epoch, sn), epoch=epoch)
        storage.record_stable_checkpoint(certificate(epoch, (epoch + 1) * EPOCH - 1))


def _recovered(disk, storage=None) -> RecoveryHarness:
    """A fresh node recovered from ``disk`` (through ``storage``, when the
    caller opened it already), as a restarted node is."""
    storage = storage if storage is not None else NodeStorage(0, disk)
    harness = RecoveryHarness(epoch_length=EPOCH, storage=storage)
    harness.info = RecoveryManager(harness.storage).recover(harness.node, now=1.0)
    return harness


def _delivered_rids(harness: RecoveryHarness):
    return [(d.request.rid.client, d.request.rid.timestamp) for d in harness.delivered]


def test_archive_is_wal_frames_sealed_by_the_certificate(disk):
    """A sealed run is the log's own commit frames, closed by the
    certificate record; nothing is copied anywhere."""
    storage = NodeStorage(0, disk)
    _run_epochs(storage, 0, 2)
    storage.close()
    records, torn = scan(disk)
    kinds = [r.kind for r in records]
    assert kinds == ([RECORD_EPOCH_START] + [RECORD_COMMIT] * EPOCH + [RECORD_CHECKPOINT]) * 2
    assert [r.sn for r in records if r.kind == RECORD_COMMIT] == list(range(2 * EPOCH))
    assert [r.certificate.last_sn for r in records if r.kind == RECORD_CHECKPOINT] == [3, 7]
    assert torn is False
    # Reopening seals both runs again; entries read back match what was sealed.
    reopened = NodeStorage(0, disk)
    assert reopened.sealed_count() == 8 and reopened.wal.sealed.epoch == 1
    assert reopened.wal.commit_count() == 0
    assert reopened.entry_at(5) == batch(1, 5)
    assert reopened.entries_of([6, 1]) == [(6, batch(1, 6)), (1, batch(0, 1))]
    with pytest.raises(KeyError):
        reopened.entry_at(8)
    with pytest.raises(KeyError):
        reopened.entries_of([7, 8])
    reopened.close()


@pytest.mark.parametrize("tail", ["torn-frame", "unsealed-run", "both"])
def test_torn_or_unsealed_archive_tail_is_dropped_and_sealing_resumes(disk, tail):
    """Behind the last sealed run: a torn frame is dropped and truncated;
    commits no certificate covers yet are kept, and the next certificate
    seals them."""
    storage = NodeStorage(0, disk)
    _run_epochs(storage, 0, 2)
    storage.close()
    if tail in ("unsealed-run", "both"):
        for sn in range(2 * EPOCH, 3 * EPOCH):  # epoch 2, its certificate never recorded
            disk.append(WAL_FILENAME, frame(WalRecord(RECORD_COMMIT, 2, sn, batch(2, sn))))
    intact = disk.size(WAL_FILENAME)
    if tail in ("torn-frame", "both"):
        disk.append(WAL_FILENAME, frame(WalRecord(RECORD_COMMIT, 2, 99, batch(2, 99)))[:-3])
    disk.fsync(WAL_FILENAME)
    disk.close()

    kept = 0 if tail == "torn-frame" else EPOCH
    reopened = NodeStorage(0, disk)
    assert reopened.wal.torn_tail_detected == (tail != "unsealed-run")
    assert disk.size(WAL_FILENAME) == intact
    assert reopened.sealed_count() == 2 * EPOCH
    assert reopened.durable_entry_count() == 2 * EPOCH + kept
    # State transfer fills what is missing; a later seal then follows...
    for sn in range(2 * EPOCH + kept, 3 * EPOCH):
        reopened.record_commit(sn, batch(2, sn), epoch=2)
    reopened.record_stable_checkpoint(certificate(2, 3 * EPOCH - 1))
    _run_epochs(reopened, 3, 1)
    reopened.close()
    # ...and a further reopen reads four clean sealed runs.
    final = NodeStorage(0, disk)
    assert not final.wal.torn_tail_detected
    assert final.sealed_count() == 4 * EPOCH
    assert final.entries_of(range(4 * EPOCH)) == [
        (sn, batch(sn // EPOCH, sn)) for sn in range(4 * EPOCH)
    ]
    final.close()


def test_damaged_frame_in_the_middle_of_the_archive_never_leaves_a_silent_gap(
    disk, tmp_path
):
    storage = NodeStorage(0, disk)
    _run_epochs(storage, 0, 4)
    for sn in range(4 * EPOCH, 4 * EPOCH + 2):  # the tail above the last seal
        storage.record_commit(sn, batch(4, sn), epoch=4)
    storage.close()

    # Flip a payload byte of the commit frame of sn EPOCH + 2, inside the
    # *second* sealed run (an epoch is EPOCH + 2 frames: start, commits,
    # certificate).
    ends = [end for _r, end in read_frames(disk)]
    damaged = (EPOCH + 2) + 1 + 2
    data = bytearray(raw(disk))
    data[ends[damaged] - 1] ^= 0xFF
    rewrite(disk, bytes(data))

    # Reopen: the log ends right before the damage.
    storage = NodeStorage(0, disk)
    assert storage.wal.torn_tail_detected
    assert disk.size(WAL_FILENAME) == ends[damaged - 1]
    assert storage.sealed_count() == EPOCH
    # Recovery delivers exactly the prefix before the damage and resumes in
    # the damaged epoch, knowing precisely which positions it lacks — no
    # silent hole.
    harness = _recovered(disk, storage)
    assert harness.info.resume_epoch == 1
    assert _delivered_rids(harness) == [(sn // EPOCH, sn) for sn in range(EPOCH + 2)]
    assert harness.node.log.missing(range(4 * EPOCH + 2)) == list(
        range(EPOCH + 2, 4 * EPOCH + 2)
    )
    spec = LiveClusterSpec(config=ISSConfig(num_nodes=4), data_dir=str(tmp_path), base_port=1)
    if isinstance(disk, OsDisk):  # the live audit reads the same directory
        assert durable_prefix_len(spec, 0) == EPOCH + 2
        assert durable_seals(spec, 0) == 1

    # State transfer refills the lost positions through the ordinary commit
    # path; the next checkpoint then seals one contiguous run again.
    for sn in range(EPOCH + 2, 4 * EPOCH + 2):
        storage.record_commit(sn, batch(sn // EPOCH, sn), sn // EPOCH)
    storage.record_stable_checkpoint(certificate(3, 4 * EPOCH - 1))
    assert storage.sealed_count() == 4 * EPOCH
    storage.close()
    healed = NodeStorage(0, disk)
    assert not healed.wal.torn_tail_detected
    assert healed.sealed_count() == 4 * EPOCH and healed.wal.commit_count() == 2
    assert healed.entries_of(range(4 * EPOCH + 2)) == [
        (sn, batch(sn // EPOCH, sn)) for sn in range(4 * EPOCH + 2)
    ]
    if isinstance(disk, OsDisk):
        assert durable_prefix_len(spec, 0) == 4 * EPOCH + 2
        assert durable_seals(spec, 0) == 2
    healed.close()


def test_a_stable_checkpoint_writes_one_frame_and_one_fsync(disk, monkeypatch):
    """Whatever the size of the epoch it closes, a stable checkpoint appends
    one certificate frame and fsyncs once: it copies, rewrites and reads
    back nothing, and the positions it seals leave the index."""
    calls = []

    def spy(method):
        original = getattr(disk, method)

        def call(name, *args):
            calls.append((method, name, len(args[0]) if method == "append" else None))
            return original(name, *args)

        monkeypatch.setattr(disk, method, call)

    for method in ("append", "fsync", "truncate", "read", "read_at"):
        spy(method)
    storage = NodeStorage(0, disk)
    first, frames = 0, []
    for epoch, size in enumerate((2, 8, 64)):
        for sn in range(first, first + size):
            storage.record_commit(sn, batch(epoch, sn), epoch=epoch)
        first += size
        calls.clear()
        storage.record_stable_checkpoint(certificate(epoch, first - 1))
        assert [(method, name) for method, name, _size in calls] == [
            ("append", WAL_FILENAME),
            ("fsync", WAL_FILENAME),
        ]
        frames.append(calls[0][2])
        assert storage.sealed_count() == first and storage.wal.commit_count() == 0
    assert len(set(frames)) == 1
    storage.close()


# -------------------------------------------------------- the simulated disk
class TestSimDisk:
    """The disk-generic bodies above, run on the simulator's ``SimDisk``,
    plus what only a simulated disk can show: a crash keeps synced bytes."""

    @pytest.fixture
    def make_disk(self):
        return lambda name: SimDisk()

    test_fsync_on_every_commit_append = staticmethod(test_fsync_on_every_commit_append)
    test_wal_reopen_round_trip = staticmethod(test_wal_reopen_round_trip)
    test_torn_tail_truncated_on_reopen = staticmethod(test_torn_tail_truncated_on_reopen)
    test_corrupted_payload_detected_by_crc = staticmethod(
        test_corrupted_payload_detected_by_crc
    )
    test_undecodable_tail_is_torn = staticmethod(test_undecodable_tail_is_torn)
    test_compaction_snapshot_plus_wal_reload = staticmethod(
        test_compaction_snapshot_plus_wal_reload
    )
    test_reopen_counts_appends_not_replayed_records = staticmethod(
        test_reopen_counts_appends_not_replayed_records
    )
    test_codec_frames_round_trip_exact_records = staticmethod(
        test_codec_frames_round_trip_exact_records
    )
    test_archive_is_wal_frames_sealed_by_the_certificate = staticmethod(
        test_archive_is_wal_frames_sealed_by_the_certificate
    )
    test_torn_or_unsealed_archive_tail_is_dropped_and_sealing_resumes = staticmethod(
        test_torn_or_unsealed_archive_tail_is_dropped_and_sealing_resumes
    )
    test_damaged_frame_in_the_middle_of_the_archive_never_leaves_a_silent_gap = (
        staticmethod(test_damaged_frame_in_the_middle_of_the_archive_never_leaves_a_silent_gap)
    )
    test_a_stable_checkpoint_writes_one_frame_and_one_fsync = staticmethod(
        test_a_stable_checkpoint_writes_one_frame_and_one_fsync
    )

    def test_a_crash_keeps_synced_bytes_and_reopen_repairs_a_torn_tail(self):
        """An unsynced suffix is lost; a torn frame that did reach the disk
        is truncated on reopen; either way recovery replays the same prefix."""
        control = SimDisk()
        _run_epochs(NodeStorage(0, control), 0, 2)
        disk = SimDisk()
        storage = NodeStorage(0, disk)
        _run_epochs(storage, 0, 2)
        synced = disk.size(WAL_FILENAME)

        # Written, never synced: gone after the crash.
        disk.append(WAL_FILENAME, frame(WalRecord(RECORD_COMMIT, 2, 8, batch(2, 8))))
        disk.crash()
        assert disk.size(WAL_FILENAME) == synced
        assert not NodeStorage(0, disk).wal.torn_tail_detected

        # Half a frame that was synced before the power went: a torn tail.
        disk.append(WAL_FILENAME, frame(WalRecord(RECORD_COMMIT, 2, 8, batch(2, 8)))[:5])
        disk.fsync(WAL_FILENAME)
        disk.crash()
        reopened = NodeStorage(0, disk)
        assert reopened.wal.torn_tail_detected
        assert disk.size(WAL_FILENAME) == synced
        recovered, expected = _recovered(disk), _recovered(control)
        assert recovered.info.resume_epoch == expected.info.resume_epoch == 2
        assert _delivered_rids(recovered) == _delivered_rids(expected)
