"""Unit tests for request buckets and the rotating bucket assignment."""

import pytest

from repro.core.buckets import (
    BucketPool,
    BucketQueue,
    assignment_for_epoch,
    bucket_of,
    buckets_for_leader,
    extra_buckets,
    init_buckets,
)
from repro.core.types import RequestId
from tests.conftest import make_request


class TestBucketOf:
    def test_deterministic(self):
        rid = RequestId(client=3, timestamp=9)
        assert bucket_of(rid, 64) == bucket_of(rid, 64)

    def test_within_range(self):
        for client in range(10):
            for ts in range(20):
                assert 0 <= bucket_of(RequestId(client, ts), 16) < 16

    def test_payload_independent(self):
        a = make_request(client=1, timestamp=5, payload=b"a")
        b = make_request(client=1, timestamp=5, payload=b"completely different")
        assert bucket_of(a.rid, 32) == bucket_of(b.rid, 32)

    def test_roughly_uniform(self):
        counts = [0] * 16
        for client in range(8):
            for ts in range(200):
                counts[bucket_of(RequestId(client, ts), 16)] += 1
        assert min(counts) > 40  # 100 expected per bucket

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            bucket_of(RequestId(0, 0), 0)


class TestAssignment:
    def test_init_buckets_partition_nodes(self):
        num_nodes, num_buckets = 4, 32
        seen = []
        for node in range(num_nodes):
            seen.extend(init_buckets(epoch=0, node=node, num_nodes=num_nodes, num_buckets=num_buckets))
        assert sorted(seen) == list(range(num_buckets))

    def test_init_buckets_rotate_with_epoch(self):
        a = init_buckets(epoch=0, node=0, num_nodes=4, num_buckets=16)
        b = init_buckets(epoch=1, node=0, num_nodes=4, num_buckets=16)
        assert a != b

    def test_extra_buckets_are_non_leader_buckets(self):
        leaders = [0, 1]
        extras = extra_buckets(epoch=0, leaders=leaders, num_nodes=4, num_buckets=16)
        for bucket in extras:
            owner = (bucket + 0) % 4
            assert owner not in leaders

    def test_paper_figure2_example(self):
        """8 buckets, 4 nodes, 2 leaders (nodes 2 and 3), epoch 1 (Figure 2)."""
        num_nodes, num_buckets, epoch = 4, 8, 1
        leaders = [2, 3]
        assert init_buckets(epoch, 2, num_nodes, num_buckets) == [1, 5]
        assert init_buckets(epoch, 3, num_nodes, num_buckets) == [2, 6]
        assert sorted(extra_buckets(epoch, leaders, num_nodes, num_buckets)) == [0, 3, 4, 7]
        assignment = assignment_for_epoch(epoch, leaders, num_nodes, num_buckets)
        # Every bucket assigned exactly once across the two leaders.
        assert sorted(assignment[2] + assignment[3]) == list(range(8))
        assert set(init_buckets(epoch, 2, num_nodes, num_buckets)) <= set(assignment[2])
        assert set(init_buckets(epoch, 3, num_nodes, num_buckets)) <= set(assignment[3])

    @pytest.mark.parametrize("epoch", [0, 1, 2, 5, 13])
    @pytest.mark.parametrize("leaders", [[0], [0, 1], [1, 3], [0, 1, 2, 3]])
    def test_assignment_partitions_buckets(self, epoch, leaders):
        num_nodes, num_buckets = 4, 64
        assignment = assignment_for_epoch(epoch, leaders, num_nodes, num_buckets)
        all_buckets = sorted(b for buckets in assignment.values() for b in buckets)
        assert all_buckets == list(range(num_buckets))

    @pytest.mark.parametrize("epoch", [0, 1, 3, 7])
    def test_fast_assignment_matches_per_leader_formula(self, epoch):
        num_nodes, num_buckets = 5, 40
        leaders = [0, 2, 4]
        fast = assignment_for_epoch(epoch, leaders, num_nodes, num_buckets)
        for leader in leaders:
            slow = buckets_for_leader(epoch, leader, leaders, num_nodes, num_buckets)
            assert sorted(fast[leader]) == slow

    def test_every_node_eventually_gets_every_bucket(self):
        """Rotation guarantee behind the liveness argument (Lemma 5.4)."""
        num_nodes, num_buckets = 4, 16
        leaders = list(range(num_nodes))
        seen = {node: set() for node in range(num_nodes)}
        for epoch in range(num_nodes * num_buckets):
            assignment = assignment_for_epoch(epoch, leaders, num_nodes, num_buckets)
            for node, buckets in assignment.items():
                seen[node].update(buckets)
        for node in range(num_nodes):
            assert seen[node] == set(range(num_buckets))

    def test_non_leader_raises_in_per_leader_formula(self):
        with pytest.raises(ValueError):
            buckets_for_leader(0, 3, [0, 1], 4, 16)


class TestBucketQueue:
    def test_fifo_order(self):
        queue = BucketQueue(0)
        requests = [make_request(timestamp=i) for i in range(5)]
        for request in requests:
            queue.add(request)
        assert queue.take_oldest(3) == requests[:3]
        assert queue.take_oldest(10) == requests[3:]

    def test_add_is_idempotent_while_pending(self):
        queue = BucketQueue(0)
        request = make_request()
        assert queue.add(request)
        assert not queue.add(request)
        assert len(queue) == 1

    def test_add_is_idempotent_after_removal(self):
        """Exactly-once semantics: a proposed request is not re-added on
        client re-transmission (Section 3.7)."""
        queue = BucketQueue(0)
        request = make_request()
        queue.add(request)
        queue.remove(request.rid)
        assert not queue.add(request)
        assert len(queue) == 0

    def test_resurrect_restores_fifo_position(self):
        queue = BucketQueue(0)
        first, second = make_request(timestamp=0), make_request(timestamp=1)
        queue.add(first)
        queue.add(second)
        queue.remove(first.rid)
        queue.resurrect(first)
        assert queue.peek_oldest() == first

    def test_remove_unknown_returns_none(self):
        queue = BucketQueue(0)
        assert queue.remove(RequestId(9, 9)) is None

    def test_forget_history_allows_readd(self):
        queue = BucketQueue(0)
        request = make_request()
        queue.add(request)
        queue.remove(request.rid)
        queue.forget_history(request.rid)
        assert queue.add(request)

    def test_pending_lists_in_order(self):
        queue = BucketQueue(0)
        requests = [make_request(timestamp=i) for i in range(4)]
        for request in reversed(requests):
            queue.add(request)
        # Arrival order (reversed insertion) is what counts.
        assert queue.pending() == list(reversed(requests))

    def test_add_after_remove_stays_idempotent_under_resubmission(self):
        """A flood of re-transmissions after proposal never re-enters the
        queue: only resurrect() (an aborted proposal) can bring it back."""
        queue = BucketQueue(0)
        request = make_request()
        queue.add(request)
        queue.remove(request.rid)  # proposed
        for _ in range(5):  # client resubmits on every epoch change
            assert not queue.add(request)
        assert len(queue) == 0
        queue.resurrect(request)  # the proposal aborted (⊥)
        assert len(queue) == 1
        assert not queue.add(request)  # still exactly once while pending

    def test_duplicate_readd_after_forget_history(self):
        """forget_history intentionally re-opens add(): after delivered-state
        GC the watermark check — not the queue — must reject resubmissions,
        which is why GC only collects ids below the low watermark."""
        queue = BucketQueue(0)
        request = make_request()
        queue.add(request)
        queue.remove(request.rid)
        assert not queue.add(request)  # remembered
        queue.forget_history(request.rid)
        assert queue.add(request)  # memory gone: add is possible again
        assert len(queue) == 1


class TestBucketPool:
    def test_add_routes_to_hash_bucket(self):
        pool = BucketPool(num_buckets=8)
        request = make_request(client=2, timestamp=7)
        assert pool.add_request(request)
        assert request.rid in pool.queue(pool.bucket_of(request.rid))

    def test_cut_batch_respects_max_size_and_order(self):
        pool = BucketPool(num_buckets=4)
        requests = [make_request(client=c, timestamp=t) for c in range(3) for t in range(10)]
        for request in requests:
            pool.add_request(request)
        cut = pool.cut_batch(list(range(4)), max_size=12)
        assert len(cut) == 12
        assert len(set(r.rid for r in cut)) == 12

    def test_cut_batch_only_draws_from_given_buckets(self):
        pool = BucketPool(num_buckets=8)
        requests = [make_request(client=c, timestamp=t) for c in range(4) for t in range(8)]
        for request in requests:
            pool.add_request(request)
        allowed = [0, 1, 2, 3]
        cut = pool.cut_batch(allowed, max_size=100)
        for request in cut:
            assert pool.bucket_of(request.rid) in allowed

    def test_pending_in_counts_by_bucket(self):
        pool = BucketPool(num_buckets=4)
        for i in range(20):
            pool.add_request(make_request(client=i % 3, timestamp=i))
        total = sum(pool.pending_in([b]) for b in range(4))
        assert total == pool.total_pending() == 20

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            BucketPool(0)
