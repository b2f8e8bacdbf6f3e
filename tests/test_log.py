"""Unit tests for the replicated log (contiguous delivery, Equation 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.log import Log
from repro.core.types import Batch, NIL
from tests.conftest import make_batch, make_request


class TestCommit:
    def test_commit_and_lookup(self):
        log = Log()
        batch = make_batch(make_request())
        assert log.commit(0, batch, epoch=0, now=1.0)
        assert log.entry(0) is batch
        assert log.has_entry(0)

    def test_duplicate_identical_commit_is_noop(self):
        log = Log()
        batch = make_batch(make_request())
        log.commit(0, batch, epoch=0, now=1.0)
        assert not log.commit(0, Batch.of(batch.requests), epoch=0, now=2.0)

    def test_conflicting_commit_raises(self):
        log = Log()
        log.commit(0, make_batch(make_request(timestamp=1)), epoch=0, now=1.0)
        with pytest.raises(ValueError):
            log.commit(0, make_batch(make_request(timestamp=2)), epoch=0, now=2.0)

    def test_nil_commit(self):
        log = Log()
        log.commit(0, NIL, epoch=0, now=0.0)
        assert log.nil_positions() == [0]
        assert not log.commit(0, NIL, epoch=0, now=1.0)

    def test_nil_vs_batch_conflict_raises(self):
        log = Log()
        log.commit(0, NIL, epoch=0, now=0.0)
        with pytest.raises(ValueError):
            log.commit(0, make_batch(make_request()), epoch=0, now=1.0)


class TestDelivery:
    def test_contiguous_delivery_waits_for_gap(self):
        log = Log()
        log.commit(1, make_batch(make_request(timestamp=1)), epoch=0, now=0.0)
        assert log.advance_delivery(now=0.0) == []
        log.commit(0, make_batch(make_request(timestamp=0)), epoch=0, now=0.0)
        delivered = log.advance_delivery(now=1.0)
        assert [d.batch_sn for d in delivered] == [0, 1]
        assert log.first_undelivered == 2

    def test_equation2_request_sequence_numbers(self):
        """sn_r = k + sum of earlier batch sizes (Equation 2)."""
        log = Log()
        first = make_batch(*(make_request(timestamp=i) for i in range(3)))
        second = make_batch(*(make_request(timestamp=10 + i) for i in range(2)))
        log.commit(0, first, epoch=0, now=0.0)
        log.commit(1, second, epoch=0, now=0.0)
        delivered = log.advance_delivery(now=0.0)
        assert [d.sn for d in delivered] == [0, 1, 2, 3, 4]
        assert log.total_delivered_requests == 5

    def test_nil_entries_deliver_no_requests(self):
        log = Log()
        log.commit(0, NIL, epoch=0, now=0.0)
        log.commit(1, make_batch(make_request()), epoch=0, now=0.0)
        delivered = log.advance_delivery(now=0.0)
        assert len(delivered) == 1
        assert delivered[0].sn == 0
        assert delivered[0].batch_sn == 1

    def test_empty_batches_advance_without_requests(self):
        log = Log()
        log.commit(0, Batch.of(()), epoch=0, now=0.0)
        assert log.advance_delivery(now=0.0) == []
        assert log.first_undelivered == 1

    def test_delivery_is_incremental(self):
        log = Log()
        log.commit(0, make_batch(make_request(timestamp=0)), epoch=0, now=0.0)
        assert len(log.advance_delivery(now=0.0)) == 1
        assert log.advance_delivery(now=0.0) == []
        log.commit(1, make_batch(make_request(timestamp=1)), epoch=0, now=0.0)
        assert len(log.advance_delivery(now=0.0)) == 1


class TestQueries:
    def test_is_complete_and_missing(self):
        log = Log()
        log.commit(0, NIL, epoch=0, now=0.0)
        log.commit(2, NIL, epoch=0, now=0.0)
        assert not log.is_complete(range(3))
        assert log.missing(range(3)) == [1]
        log.commit(1, NIL, epoch=0, now=0.0)
        assert log.is_complete(range(3))

    def test_highest_committed(self):
        log = Log()
        assert log.highest_committed() is None
        log.commit(5, NIL, epoch=0, now=0.0)
        assert log.highest_committed() == 5

    def test_digests_in_requires_entries(self):
        log = Log()
        log.commit(0, NIL, epoch=0, now=0.0)
        assert len(log.digests_in([0])) == 1
        with pytest.raises(KeyError):
            log.digests_in([0, 1])

    def test_entries_in_returns_pairs(self):
        log = Log()
        batch = make_batch(make_request())
        log.commit(0, batch, epoch=0, now=0.0)
        assert log.entries_in([0, 1]) == [(0, batch)]


class DictArchive:
    """The archive contract the log needs, over a plain dict."""

    def __init__(self):
        self.sealed = {}
        #: Entries read back through either method.
        self.reads = 0

    def entry_at(self, sn):
        self.reads += 1
        return self.sealed[sn]

    def entries_of(self, seq_nrs):
        seq_nrs = list(seq_nrs)
        self.reads += len(seq_nrs)
        return [(sn, self.sealed[sn]) for sn in seq_nrs]


def public_view(log: Log, positions):
    """Every public query of a log over ``positions``, as one comparable value."""

    def conflict(sn, entry):
        try:
            return log.commit(sn, entry, epoch=0, now=0.0)
        except ValueError:
            return "conflict"

    def digests():
        try:
            return log.digests_in(positions)
        except KeyError:
            return "incomplete"

    present = [sn for sn in positions if log.has_entry(sn)]
    return {
        "entry": [log.entry(sn) for sn in positions],
        "has_entry": [log.has_entry(sn) for sn in positions],
        "entries_in": log.entries_in(positions),
        "entries_in_reversed": log.entries_in(reversed(positions)),
        "digests_in": digests(),
        "digests_of_present": log.digests_in(present),
        "is_complete": [log.is_complete(positions[:k]) for k in range(len(positions) + 1)],
        "missing": log.missing(positions),
        "highest_committed": log.highest_committed(),
        "committed_count": log.committed_count(),
        "nil_positions": log.nil_positions(),
        "holds_nil": [log.holds_nil(sn) for sn in positions],
        "first_undelivered": log.first_undelivered,
        "total_delivered_requests": log.total_delivered_requests,
        # Re-committing the same value is a no-op, another value a conflict,
        # wherever the position lives.
        "recommit_same": [conflict(sn, log.entry(sn)) for sn in present],
        "recommit_nil": [conflict(sn, NIL) for sn in present],
        "recommit_other": [
            conflict(sn, make_batch(make_request(client=9, timestamp=sn))) for sn in present
        ],
    }


class TestEviction:
    def test_evicted_positions_answer_from_the_archive(self):
        log, archive = Log(), DictArchive()
        entries = [make_batch(make_request(timestamp=0)), NIL, make_batch(make_request(timestamp=2))]
        for sn, value in enumerate(entries):
            log.commit(sn, value, epoch=0, now=0.0)
            archive.sealed[sn] = value
        log.advance_delivery(now=0.0)
        log.evict_through(1, archive)
        assert log.resident_count() == 1 and log.committed_count() == 3
        assert [log.entry(sn) for sn in range(4)] == entries + [None]
        assert log.entries_in(range(4)) == list(enumerate(entries))
        assert log.nil_positions() == [1]
        assert log.is_complete(range(3)) and log.missing(range(4)) == [3]
        assert not log.commit(0, Batch.of(entries[0].requests), epoch=0, now=1.0)
        with pytest.raises(ValueError):
            log.commit(1, entries[0], epoch=0, now=1.0)

    def test_unsealed_evicted_positions_answer_digests_without_a_read_back(self):
        """The checkpoint root, a repeated commit and the ⊥ test of an
        evicted position nothing has sealed yet read no entry back."""
        log, archive = Log(), DictArchive()
        entries = [make_batch(make_request(timestamp=0)), NIL]
        for sn, value in enumerate(entries):
            log.commit(sn, value, epoch=0, now=0.0)
        log.advance_delivery(now=0.0)
        log.evict_through(1, archive, sealed_through=-1)
        assert log.resident_count() == 0
        assert log.digests_in(range(2)) == [value.digest() for value in entries]
        assert not log.commit(0, Batch.of(entries[0].requests), epoch=0, now=1.0)
        assert log.holds_nil(1) and not log.holds_nil(0)
        assert archive.reads == 0
        # Once sealed, the digest goes and the archive answers for it.
        archive.sealed.update(enumerate(entries))
        log.evict_through(1, archive, sealed_through=1)
        assert log.digests_in(range(2)) == [value.digest() for value in entries]
        assert archive.reads == 2

    def test_undelivered_positions_are_never_evicted(self):
        log, archive = Log(), DictArchive()
        for sn in (0, 1, 3):
            log.commit(sn, NIL, epoch=0, now=0.0)
            archive.sealed[sn] = NIL
        log.advance_delivery(now=0.0)  # delivers 0 and 1; 2 is a hole
        log.evict_through(3, archive)
        assert log.resident_count() == 1  # sn 3 stays: delivery still needs it
        log.commit(2, NIL, epoch=0, now=0.0)
        log.advance_delivery(now=0.0)
        assert log.first_undelivered == 4

    def test_highest_committed_of_a_fully_evicted_log(self):
        log, archive = Log(), DictArchive()
        log.commit(0, NIL, epoch=0, now=0.0)
        archive.sealed[0] = NIL
        log.advance_delivery(now=0.0)
        log.evict_through(0, archive)
        assert log.resident_count() == 0
        assert log.highest_committed() == 0


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(0, 23), st.integers(0, 3)),
        st.tuples(st.just("deliver"), st.just(0), st.just(0)),
        st.tuples(st.just("evict"), st.integers(-1, 23), st.integers(-1, 23)),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(operations=_OPS)
def test_evicting_log_matches_never_evicting_reference(operations):
    """Model test: random commit / advance_delivery / evict_through sequences
    against a reference log that never evicts; every public query agrees
    after every step."""
    log, reference, archive = Log(), Log(), DictArchive()
    positions = list(range(25))
    for op, sn, size in operations:
        if op == "commit":
            value = (
                NIL
                if size == 0
                else make_batch(*(make_request(client=sn, timestamp=k) for k in range(size - 1)))
            )
            outcomes = []
            for target in (log, reference):
                try:
                    outcomes.append(target.commit(sn, value, epoch=sn // 8, now=0.0))
                except ValueError:
                    outcomes.append("conflict")
            assert outcomes[0] == outcomes[1]
        elif op == "deliver":
            assert log.advance_delivery(now=1.0) == reference.advance_delivery(now=1.0)
        else:
            # Storage seals (and the node evicts) only what is committed.
            bound = min(sn, reference.first_undelivered - 1)
            for position in range(bound + 1):
                archive.sealed[position] = reference.entry(position)
            # ``size`` doubles as how far the archive counts as sealed.
            log.evict_through(sn, archive, sealed_through=min(size, bound))
            assert log.resident_count() <= reference.committed_count() - (bound + 1)
        assert public_view(log, positions) == public_view(reference, positions)
