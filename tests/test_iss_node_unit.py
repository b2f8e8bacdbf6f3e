"""Unit-level tests for ISSNode internals (without a full workload)."""

import pytest

from repro.core.config import ISSConfig, NetworkConfig
from repro.core.iss import ISSNode
from repro.core.messages import InstanceMessage
from repro.core.types import Batch, NIL, SegmentDescriptor, is_nil
from repro.core.validation import sign_request
from repro.crypto.signatures import KeyStore
from repro.pbft.messages import PrePrepare
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from tests.conftest import make_request


class NodeHarness:
    """A single ISS node wired to a network with silent peers."""

    def __init__(self, num_nodes=4, **config_overrides):
        defaults = dict(
            epoch_length=8,
            max_batch_size=8,
            batch_rate=None,
            max_batch_timeout=0.5,
            view_change_timeout=3.0,
            epoch_change_timeout=3.0,
        )
        defaults.update(config_overrides)
        self.config = ISSConfig(num_nodes=num_nodes, **defaults)
        self.sim = Simulator(seed=4)
        net_config = NetworkConfig(jitter=0.0)
        self.network = Network(self.sim, net_config, LatencyModel(net_config, num_nodes))
        self.key_store = KeyStore(deployment_seed=1)
        self.delivered = []
        self.node = ISSNode(
            node_id=0,
            config=self.config,
            sim=self.sim,
            network=self.network,
            key_store=self.key_store,
            client_ids=[0, 1],
            on_deliver=lambda node_id, item: self.delivered.append(item),
        )
        # Peers exist on the network but never respond.
        for peer in range(1, num_nodes):
            self.network.register(peer, lambda src, msg: None)

    def signed_request(self, client=0, timestamp=0):
        return sign_request(self.key_store, make_request(client=client, timestamp=timestamp))


class TestRequestHandling:
    def test_valid_request_enters_bucket_queue(self):
        harness = NodeHarness()
        assert harness.node.submit_request(harness.signed_request())
        assert harness.node.pending_requests() == 1

    def test_invalid_signature_rejected(self):
        harness = NodeHarness()
        assert not harness.node.submit_request(make_request(client=0))
        assert harness.node.pending_requests() == 0

    def test_unknown_client_rejected(self):
        harness = NodeHarness()
        assert not harness.node.submit_request(harness.signed_request(client=9))

    def test_duplicate_submission_is_idempotent(self):
        harness = NodeHarness()
        request = harness.signed_request()
        assert harness.node.submit_request(request)
        assert not harness.node.submit_request(request)
        assert harness.node.pending_requests() == 1

    def test_committed_request_never_requeued(self):
        """A re-sent request the node committed, delivered in order or not,
        is refused as a duplicate and never re-enters a bucket queue."""
        harness = NodeHarness()
        node = harness.node
        node.start()
        segment_of = {sn: s for s in node.manager.segments_for(0) for sn in s.seq_nrs}
        done, waiting = harness.signed_request(timestamp=0), harness.signed_request(timestamp=1)
        node._sb_deliver(segment_of[0], 0, Batch.of([done]))
        node._sb_deliver(segment_of[2], 2, Batch.of([waiting]))  # position 1 still open
        assert node.log.first_undelivered == 1
        for request in (done, waiting):
            assert not harness.node.submit_request(request)
        assert harness.node.pending_requests() == 0
        assert harness.node.duplicate_requests[0] == 2

    def test_signature_verification_can_be_disabled(self):
        harness = NodeHarness(client_signatures=False)
        assert harness.node.submit_request(make_request(client=0))


class TestEpochZeroSetup:
    def test_start_opens_one_instance_per_leader(self):
        harness = NodeHarness()
        harness.node.start()
        instances = list(harness.node.orderer.active_instances())
        assert len(instances) == len(harness.node.manager.leaders_for(0))

    def test_segments_cover_epoch_zero(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        sns = sorted(sn for s in segments for sn in s.seq_nrs)
        assert sns == list(range(harness.config.epoch_length))

    def test_crash_stops_instances(self):
        harness = NodeHarness()
        harness.node.start()
        harness.node.crash()
        assert harness.node.crashed
        assert list(harness.node.orderer.active_instances()) == []


class TestSBDeliverPath:
    def test_sb_deliver_commits_and_delivers_contiguously(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        request = harness.signed_request()
        harness.node.submit_request(request)
        batch = Batch.of([request])
        first_segment = next(s for s in segments if 0 in s.seq_nrs)
        harness.node._sb_deliver(first_segment, 0, batch)
        assert harness.node.log.has_entry(0)
        assert len(harness.delivered) == 1
        assert harness.delivered[0].request.rid == request.rid

    def test_nil_delivery_resurrects_own_proposal(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        own_segment = next(s for s in segments if s.leader == 0)
        request = harness.signed_request()
        harness.node.submit_request(request)
        sn = own_segment.seq_nrs[0]
        batch = harness.node._cut_batch(own_segment, sn)
        assert len(batch) == 1
        assert harness.node.pending_requests() == 0
        harness.node._sb_deliver(own_segment, sn, NIL)
        # The unsuccessfully proposed request went back to its bucket queue.
        assert harness.node.pending_requests() == 1

    def test_delivered_request_not_resurrected(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        own_segment = next(s for s in segments if s.leader == 0)
        other_segment = next(s for s in segments if s.leader != 0)
        request = harness.signed_request()
        harness.node.submit_request(request)
        sn = own_segment.seq_nrs[0]
        batch = harness.node._cut_batch(own_segment, sn)
        # The same request commits in another segment first (e.g. duplicate
        # submission raced): the later ⊥ must not resurrect it.
        harness.node._sb_deliver(other_segment, other_segment.seq_nrs[0], Batch.of([request]))
        harness.node._sb_deliver(own_segment, sn, NIL)
        assert harness.node.pending_requests() == 0

    def test_epoch_advances_when_all_positions_filled(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        for segment in segments:
            for sn in segment.seq_nrs:
                harness.node._sb_deliver(segment, sn, Batch.of(()))
        assert harness.node.current_epoch == 1
        assert harness.node.epochs_completed == 1

    def test_duplicate_sb_deliver_ignored(self):
        harness = NodeHarness()
        harness.node.start()
        segment = harness.node.manager.segments_for(0)[0]
        harness.node._sb_deliver(segment, segment.seq_nrs[0], Batch.of(()))
        harness.node._sb_deliver(segment, segment.seq_nrs[0], Batch.of(()))
        assert harness.node.log.committed_count() == 1


class TestBatchValidation:
    def test_rejects_request_outside_segment_buckets(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        request = harness.signed_request()
        bucket = harness.node.buckets.bucket_of(request.rid)
        wrong_segment = next(s for s in segments if bucket not in s.buckets)
        assert not harness.node._validate_batch(wrong_segment, Batch.of([request]))

    def test_accepts_request_in_correct_segment(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        request = harness.signed_request()
        bucket = harness.node.buckets.bucket_of(request.rid)
        right_segment = next(s for s in segments if bucket in s.buckets)
        assert harness.node._validate_batch(right_segment, Batch.of([request]))

    def test_rejects_already_delivered_request(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        request = harness.signed_request()
        bucket = harness.node.buckets.bucket_of(request.rid)
        segment = next(s for s in segments if bucket in s.buckets)
        harness.node._sb_deliver(segment, segment.seq_nrs[0], Batch.of([request]))
        assert not harness.node._validate_batch(segment, Batch.of([request]))

    def test_rejects_duplicate_within_batch(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        request = harness.signed_request()
        bucket = harness.node.buckets.bucket_of(request.rid)
        segment = next(s for s in segments if bucket in s.buckets)
        assert not harness.node._validate_batch(segment, Batch.of([request, request]))

    def test_rejects_same_request_in_two_different_batches(self):
        harness = NodeHarness()
        harness.node.start()
        segments = harness.node.manager.segments_for(0)
        request = harness.signed_request()
        other = harness.signed_request(timestamp=1)
        bucket = harness.node.buckets.bucket_of(request.rid)
        segment = next(s for s in segments if bucket in s.buckets)
        assert harness.node._validate_batch(segment, Batch.of([request]))
        conflicting = Batch.of([request, other])
        if harness.node.buckets.bucket_of(other.rid) not in segment.buckets:
            conflicting = Batch.of([request])
            # Re-validating the identical batch is fine; a different batch
            # containing the same request is not, which the next assert shows
            # using a padded copy.
            padded = Batch.of([request, request])
            assert not harness.node._validate_batch(segment, padded)
        else:
            assert not harness.node._validate_batch(segment, conflicting)


class TestInstanceMessageRouting:
    def test_future_epoch_messages_buffered(self):
        harness = NodeHarness()
        harness.node.start()
        message = InstanceMessage(instance_id=(1, 0), payload="future")
        harness.node.on_message(1, message)
        assert harness.node._pending_messages.get(1)

    def test_epoch_zero_message_before_start_is_buffered(self):
        """Before ``start()`` no epoch has started, epoch 0 included: a
        PRE-PREPARE that arrives first is kept and reaches its instance."""
        harness = NodeHarness()
        batch = Batch.of(())
        # Node 1 leads sn 1 of epoch 0 (round-robin over 4 leaders).
        proposal = PrePrepare(view=0, sn=1, value=batch, digest=batch.digest())
        harness.node.on_message(1, InstanceMessage(instance_id=(0, 1), payload=proposal))
        assert harness.node._pending_messages.get(0)
        harness.node.start()
        assert not harness.node._pending_messages
        instance = harness.node.orderer.instances[(0, 1)]
        assert instance._slots[1].preprepare == proposal

    def test_crashed_node_ignores_messages(self):
        harness = NodeHarness()
        harness.node.start()
        harness.node.crash()
        harness.node.on_message(1, InstanceMessage(instance_id=(0, 0), payload="x"))
        # No buffering, no processing.
        assert not harness.node._pending_messages


class TestRejoinAfterSilence:
    """A replica notices a healed partition itself: a peer heard again after
    ``view_change_timeout`` (3 s here) of silence starts its catch-up when
    the node had lost a strong quorum, or when the peer shows it is ahead."""

    def started(self):
        harness = NodeHarness()
        node = harness.node
        node.start()
        nudged = []
        for instance in node.orderer.active_instances():
            instance.nudge = lambda iid=instance.instance_id: nudged.append(iid)
        return harness, node, nudged

    @staticmethod
    def speak(harness, peer, at, epoch=0):
        """``peer`` sends node 0 one message of an ``epoch`` instance at ``at``."""
        message = InstanceMessage(instance_id=(epoch, peer), payload="vote")
        harness.sim.schedule(at - harness.sim.now, lambda: harness.node.on_message(peer, message))

    def test_lost_quorum_then_a_peer_returns(self):
        """Silent for 4 s: n − q + 1 = 2 of 3 peers were enough.  The first
        peer back starts one open-ended probe and nudges every instance;
        the others' return adds nothing while the node catches up."""
        harness, node, nudged = self.started()
        for peer in (1, 2, 3):
            self.speak(harness, peer, at=0.1)
        harness.sim.run(until=4.0)
        assert node.state_transfer.probes_sent == 0 and nudged == []
        self.speak(harness, 1, at=4.1)
        harness.sim.run(until=4.2)
        assert node.state_transfer.probes_sent == 1
        assert sorted(nudged) == sorted(node.orderer.instances)
        self.speak(harness, 2, at=4.3)
        self.speak(harness, 3, at=4.4)
        harness.sim.run(until=4.5)
        assert node.state_transfer.probes_sent == 1
        assert len(nudged) == len(node.orderer.instances)

    def _f_silent_then_back(self, epoch):
        """Peers 1 and 2 keep talking; peer 3 (f = 1) is silent for 4 s and
        then sends a message of an ``epoch`` instance."""
        harness, node, nudged = self.started()
        for at in (0.1, 1.1, 2.1, 3.1, 4.1):
            self.speak(harness, 1, at)
            self.speak(harness, 2, at)
        self.speak(harness, 3, at=0.1)
        self.speak(harness, 3, at=4.15, epoch=epoch)
        harness.sim.run(until=4.2)
        return node, nudged

    def test_losing_only_f_peers_is_no_heal(self):
        node, nudged = self._f_silent_then_back(epoch=0)
        assert node.state_transfer.probes_sent == 0
        assert nudged == []

    def test_a_peer_returning_ahead_starts_catchup(self):
        node, nudged = self._f_silent_then_back(epoch=1)
        assert node._pending_messages.get(1)
        assert node.state_transfer.probes_sent == 1
        assert nudged == []
