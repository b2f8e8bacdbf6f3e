"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.buckets import (
    HEAP_SLACK,
    BucketPool,
    BucketQueue,
    assignment_for_epoch,
    bucket_of,
    buckets_for_leader,
)
from repro.core.log import Log
from repro.core.segment import (
    LAYOUT_CONTIGUOUS,
    LAYOUT_ROUND_ROBIN,
    build_segments,
    epoch_of,
    epoch_seq_nrs,
    segment_seq_nrs,
)
from repro.core.types import Batch, NIL, Request, RequestId
from repro.core.validation import ClientWatermarks
from repro.crypto.hashing import sha256
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import KeyStore
from repro.metrics.collector import LatencySummary


# ---------------------------------------------------------------------------
# Bucket assignment invariants (Section 2.4)
# ---------------------------------------------------------------------------

leaderset_strategy = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n, unique=True),
    )
)


@settings(max_examples=60, deadline=None)
@given(
    data=leaderset_strategy,
    epoch=st.integers(min_value=0, max_value=50),
    buckets_per_node=st.integers(min_value=1, max_value=8),
)
def test_bucket_assignment_is_a_partition(data, epoch, buckets_per_node):
    """Every bucket is assigned to exactly one leader in every epoch."""
    num_nodes, leaders = data
    num_buckets = buckets_per_node * num_nodes
    assignment = assignment_for_epoch(epoch, leaders, num_nodes, num_buckets)
    combined = sorted(b for buckets in assignment.values() for b in buckets)
    assert combined == list(range(num_buckets))


@settings(max_examples=40, deadline=None)
@given(
    data=leaderset_strategy,
    epoch=st.integers(min_value=0, max_value=20),
)
def test_fast_assignment_equals_reference_formula(data, epoch):
    num_nodes, leaders = data
    num_buckets = 2 * num_nodes
    fast = assignment_for_epoch(epoch, leaders, num_nodes, num_buckets)
    for leader in leaders:
        assert sorted(fast[leader]) == buckets_for_leader(epoch, leader, leaders, num_nodes, num_buckets)


@settings(max_examples=60, deadline=None)
@given(
    client=st.integers(min_value=0, max_value=2**31),
    timestamp=st.integers(min_value=0, max_value=2**31),
    num_buckets=st.integers(min_value=1, max_value=512),
)
def test_bucket_of_in_range_and_deterministic(client, timestamp, num_buckets):
    rid = RequestId(client=client, timestamp=timestamp)
    bucket = bucket_of(rid, num_buckets)
    assert 0 <= bucket < num_buckets
    assert bucket == bucket_of(rid, num_buckets)


# ---------------------------------------------------------------------------
# Segment / epoch invariants (Section 2.3)
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    epoch=st.integers(min_value=0, max_value=100),
    epoch_length=st.integers(min_value=1, max_value=64),
    num_leaders=st.integers(min_value=1, max_value=12),
    layout=st.sampled_from([LAYOUT_ROUND_ROBIN, LAYOUT_CONTIGUOUS]),
)
def test_segments_partition_epoch_for_any_layout(epoch, epoch_length, num_leaders, layout):
    all_sns = []
    for index in range(num_leaders):
        all_sns.extend(segment_seq_nrs(epoch, index, num_leaders, epoch_length, layout=layout))
    assert sorted(all_sns) == list(epoch_seq_nrs(epoch, epoch_length))


@settings(max_examples=60, deadline=None)
@given(
    sn=st.integers(min_value=0, max_value=10**6),
    epoch_length=st.integers(min_value=1, max_value=1024),
)
def test_epoch_of_is_consistent_with_epoch_ranges(sn, epoch_length):
    epoch = epoch_of(sn, epoch_length)
    assert sn in epoch_seq_nrs(epoch, epoch_length)


@settings(max_examples=30, deadline=None)
@given(
    num_nodes=st.integers(min_value=1, max_value=8),
    epoch=st.integers(min_value=0, max_value=10),
    epoch_length=st.integers(min_value=4, max_value=32),
)
def test_build_segments_round_trip(num_nodes, epoch, epoch_length):
    leaders = list(range(num_nodes))
    segments = build_segments(epoch, leaders, num_nodes, epoch_length, num_buckets=num_nodes * 4)
    sns = sorted(sn for s in segments for sn in s.seq_nrs)
    buckets = sorted(b for s in segments for b in s.buckets)
    assert sns == list(epoch_seq_nrs(epoch, epoch_length))
    assert buckets == list(range(num_nodes * 4))


# ---------------------------------------------------------------------------
# Bucket queue FIFO / exactly-once invariants (Section 3.7)
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(timestamps=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=50, unique=True))
def test_bucket_queue_fifo(timestamps):
    queue = BucketQueue(0)
    requests = [Request(rid=RequestId(0, ts)) for ts in timestamps]
    for request in requests:
        queue.add(request)
    drained = queue.take_oldest(len(requests))
    assert [r.rid for r in drained] == [r.rid for r in requests]


@settings(max_examples=50, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "resurrect", "deliver", "epoch"]),
            st.integers(0, 15),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_bucket_pool_never_duplicates_or_revives_delivered(operations):
    """Driven as a node drives it — adds and resurrections asked of the
    client watermarks first, commits noted in both — a delivered request
    never reappears, whatever the interleaving with epoch transitions, and
    the pool never holds two copies of the same request."""
    pool = BucketPool(num_buckets=4)
    marks = ClientWatermarks(window=16)
    delivered = set()
    requests = {ts: Request(rid=RequestId(0, ts)) for ts in range(16)}
    for op, ts in operations:
        request = requests[ts]
        if op == "add":
            if not marks.committed(0, ts):
                pool.add_request(request)
        elif op == "remove":
            pool.remove_request(request.rid)
        elif op == "resurrect":
            if not marks.committed(0, ts):
                pool.resurrect([request])
        elif op == "deliver":
            pool.mark_delivered(request)
            marks.note_delivered(0, ts)
            delivered.add(request.rid)
        else:
            marks.advance_epoch()
        for rid in delivered:
            assert marks.committed(rid.client, rid.timestamp)
            assert rid not in pool.queue(pool.bucket_of(rid))
    total_pending = pool.total_pending()
    distinct_pending = len({r.rid for b in range(4) for r in pool.queue(b).pending()})
    assert total_pending == distinct_pending


queue_operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "resurrect", "deliver", "take"]),
        st.integers(0, 47),
        st.integers(1, 24),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(operations=queue_operations)
def test_bucket_queue_matches_its_model_and_keeps_its_heap_bounded(operations):
    """Against a model of arrival orders: FIFO by arrival, idempotent add,
    a resurrected request back in its original slot, and after every
    operation a heap no longer than twice the pending requests plus the
    slack.  Each operation covers a run of ``span`` requests, so whole
    runs get removed as at a node that never leads the bucket, and the
    compaction has stale tuples to drop."""
    queue = BucketQueue(0)
    requests = [Request(rid=RequestId(ts % 3, ts)) for ts in range(48)]
    orders = {}  # remembered arrival order, until delivery
    pending = set()
    counter = 0
    for op, start, span in operations:
        if op == "take":
            expected = sorted(pending, key=orders.__getitem__)[:span]
            assert [r.rid for r in queue.take_oldest(span)] == expected
            pending.difference_update(expected)
            span = 0
        for index in range(start, start + span):
            request = requests[index % len(requests)]
            rid = request.rid
            if op == "add":
                fresh = rid not in pending and rid not in orders
                assert queue.add(request) == fresh
                if fresh:
                    orders[rid] = counter
                    counter += 1
                    pending.add(rid)
            elif op == "remove":
                assert (queue.remove(rid) is not None) == (rid in pending)
                pending.discard(rid)
            elif op == "resurrect":
                queue.resurrect(request)
                if rid not in orders:
                    orders[rid] = counter
                    counter += 1
                pending.add(rid)
            else:
                queue.remove(rid)
                queue.forget_history(rid)
                pending.discard(rid)
                orders.pop(rid, None)
            assert len(queue._heap) <= 2 * len(queue) + HEAP_SLACK
        fifo = sorted(pending, key=orders.__getitem__)
        assert [r.rid for r in queue.pending()] == fifo
        assert len(queue) == len(pending)
        oldest = queue.peek_oldest()
        assert (oldest.rid if oldest is not None else None) == (fifo[0] if fifo else None)
        assert len(queue._heap) <= 2 * len(queue) + HEAP_SLACK


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "resurrect", "deliver", "cut"]),
            st.integers(0, 63),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_bucket_pool_answers_alike_with_or_without_its_queues(operations):
    """A pool whose queues all exist and one that creates them on first use
    answer every query alike, and no read creates a queue."""
    num_buckets = 16
    eager, lazy = BucketPool(num_buckets), BucketPool(num_buckets)
    for bucket in range(num_buckets):
        eager.queue(bucket)
    requests = [Request(rid=RequestId(ts % 5, ts)) for ts in range(64)]
    for op, index in operations:
        request = requests[index]
        before = set(lazy._queues)
        if op == "add":
            assert eager.add_request(request) == lazy.add_request(request)
        elif op == "remove":
            assert eager.remove_request(request.rid) == lazy.remove_request(request.rid)
            assert set(lazy._queues) == before
        elif op == "resurrect":
            eager.resurrect([request])
            lazy.resurrect([request])
        elif op == "deliver":
            eager.mark_delivered(request)
            lazy.mark_delivered(request)
            assert set(lazy._queues) == before
        else:
            buckets = [b for b in range(num_buckets) if (b * 7 + index) % 3]
            size = index % 6
            assert eager.cut_batch(buckets, size) == lazy.cut_batch(buckets, size)
            assert set(lazy._queues) == before
        before = set(lazy._queues)
        for bucket in range(num_buckets):
            assert eager.pending_in([bucket]) == lazy.pending_in([bucket])
        assert eager.pending_in(range(num_buckets)) == lazy.pending_in(range(num_buckets))
        assert eager.total_pending() == lazy.total_pending()
        assert set(lazy._queues) == before


# ---------------------------------------------------------------------------
# Log invariants (Equation 2)
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(batch_sizes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20))
def test_log_request_numbering_matches_equation_2(batch_sizes):
    log = Log()
    counter = 0
    expected_total = 0
    for sn, size in enumerate(batch_sizes):
        requests = [Request(rid=RequestId(1, counter + i)) for i in range(size)]
        counter += size
        expected_total += size
        log.commit(sn, Batch.of(requests), epoch=0, now=0.0)
    delivered = log.advance_delivery(now=0.0)
    assert [d.sn for d in delivered] == list(range(expected_total))
    assert log.total_delivered_requests == expected_total


@settings(max_examples=40, deadline=None)
@given(order=st.permutations(list(range(12))))
def test_log_delivery_order_independent_of_commit_order(order):
    """Contiguous delivery yields the same result regardless of commit order."""
    log = Log()
    for sn in order:
        log.commit(sn, Batch.of([Request(rid=RequestId(0, sn))]), epoch=0, now=0.0)
        log.advance_delivery(now=0.0)
    assert log.first_undelivered == 12
    assert log.total_delivered_requests == 12


# ---------------------------------------------------------------------------
# Watermarks
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    delivered=st.lists(st.integers(min_value=0, max_value=63), max_size=64, unique=True),
    window=st.integers(min_value=1, max_value=32),
)
def test_watermark_low_never_exceeds_first_gap(delivered, window):
    marks = ClientWatermarks(window=window)
    for ts in delivered:
        marks.note_delivered(0, ts)
    marks.advance_epoch()
    low = marks.low_watermark(0)
    delivered_set = set(delivered)
    # Everything below the low watermark has been delivered...
    assert all(ts in delivered_set for ts in range(low))
    # ...and the position at the watermark has not.
    assert low not in delivered_set


# ---------------------------------------------------------------------------
# Crypto
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(leaves=st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=32))
def test_merkle_proofs_verify_for_random_trees(leaves):
    hashed = [sha256(leaf) for leaf in leaves]
    tree = MerkleTree(hashed)
    for index, leaf in enumerate(hashed):
        assert MerkleTree.verify(tree.root, leaf, tree.proof(index))


@settings(max_examples=40, deadline=None)
@given(identity=st.integers(min_value=0, max_value=1000), message=st.binary(max_size=64))
def test_signatures_only_verify_for_signer_and_message(identity, message):
    ks = KeyStore(deployment_seed=3)
    signature = ks.sign(identity, message)
    assert ks.verify(identity, message, signature)
    assert not ks.verify(identity + 1, message, signature)
    assert not ks.verify(identity, message + b"x", signature)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(samples=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=200))
def test_latency_summary_orderings(samples):
    summary = LatencySummary.from_samples(samples)
    assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
    assert 0.0 <= summary.mean <= summary.maximum
