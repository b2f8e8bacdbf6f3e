"""Unit tests for the SBContext host interface and instance messages."""

import pytest

from repro.core.config import ISSConfig
from repro.core.messages import (
    BucketAssignmentMsg,
    ClientRequestMsg,
    ClientResponseMsg,
    InstanceMessage,
    client_endpoint,
)
from repro.core.sb import SBContext
from repro.core.types import Batch, RequestId, SegmentDescriptor
from repro.sim.simulator import Simulator
from tests.conftest import make_batch, make_request


class ContextHarness:
    def __init__(self, node_id=0, leader=0, num_nodes=4, **config_overrides):
        self.sim = Simulator()
        self.config = ISSConfig(num_nodes=num_nodes, epoch_length=8, batch_rate=None, **config_overrides)
        self.segment = SegmentDescriptor(epoch=1, leader=leader, seq_nrs=(1, 3, 5, 7), buckets=(0, 1))
        self.sent = []
        self.local = []
        self.multicasts = []
        self.delivered = []
        self.cut_calls = []
        self.pending = 0
        self.context = SBContext(
            node_id=node_id,
            config=self.config,
            segment=self.segment,
            all_nodes=list(range(num_nodes)),
            send_fn=lambda dst, msg: self.sent.append((dst, msg)),
            local_fn=lambda msg: self.local.append(msg),
            multicast_fn=lambda dsts, msg: self.multicasts.append((list(dsts), msg)),
            schedule_fn=self.sim.schedule,
            now_fn=lambda: self.sim.now,
            cut_batch_fn=lambda sn: self.cut_calls.append(sn) or make_batch(make_request(timestamp=sn)),
            validate_batch_fn=lambda batch: len(batch) < 3,
            deliver_fn=lambda sn, value: self.delivered.append((sn, value)),
            pending_fn=lambda: self.pending,
        )


class TestSBContext:
    def test_quorum_properties(self):
        harness = ContextHarness()
        assert harness.context.num_nodes == 4
        assert harness.context.max_faulty == 1
        assert harness.context.strong_quorum == 3
        assert harness.context.weak_quorum == 2

    def test_is_leader(self):
        assert ContextHarness(node_id=0, leader=0).context.is_leader
        assert not ContextHarness(node_id=1, leader=0).context.is_leader

    def test_send_to_peer_uses_network(self):
        harness = ContextHarness()
        harness.context.send(2, "msg")
        assert harness.sent == [(2, "msg")]
        assert harness.local == []

    def test_send_to_self_short_circuits(self):
        harness = ContextHarness()
        harness.context.send(0, "msg")
        assert harness.sent == []
        assert harness.local == ["msg"]

    def test_broadcast_is_one_multicast_with_self_in_place(self):
        harness = ContextHarness(node_id=2)
        harness.context.broadcast("msg")
        assert harness.multicasts == [([0, 1, 2, 3], "msg")]
        assert harness.sent == [] and harness.local == []

    def test_broadcast_can_exclude_self(self):
        harness = ContextHarness(node_id=2)
        harness.context.broadcast("msg", include_self=False)
        assert harness.multicasts == [([0, 1, 3], "msg")]
        assert harness.sent == [] and harness.local == []

    def test_cut_batch_delegates(self):
        harness = ContextHarness()
        batch = harness.context.cut_batch(3)
        assert harness.cut_calls == [3]
        assert len(batch) == 1

    def test_validate_and_deliver_delegate(self):
        harness = ContextHarness()
        assert harness.context.validate_batch(make_batch(make_request()))
        assert not harness.context.validate_batch(
            make_batch(*(make_request(timestamp=i) for i in range(5)))
        )
        harness.context.deliver(3, make_batch())
        assert harness.delivered[0][0] == 3

    def test_batch_ready_uses_pending_and_config(self):
        harness = ContextHarness(max_batch_size=10)
        harness.pending = 5
        assert not harness.context.batch_ready()
        harness.pending = 10
        assert harness.context.batch_ready()

    def test_may_propose_defaults_to_true(self):
        harness = ContextHarness()
        assert harness.context.may_propose(1)

    def test_schedule_uses_simulator(self):
        harness = ContextHarness()
        fired = []
        harness.context.schedule(1.0, lambda: fired.append(harness.context.now()))
        harness.sim.run()
        assert fired == [1.0]


class TestMessageEnvelopes:
    def test_instance_message_wire_size_includes_payload(self):
        inner = make_batch(make_request(payload=b"x" * 100))
        message = InstanceMessage(instance_id=(0, 1), payload=inner)
        assert message.wire_size() > inner.size_bytes()

    def test_client_request_wire_size(self):
        request = make_request(payload=b"y" * 200)
        assert ClientRequestMsg(request=request).wire_size() > 200

    def test_client_response_and_assignment_sizes(self):
        response = ClientResponseMsg(rid=RequestId(0, 1), sn=5, node=2)
        assert response.wire_size() > 0
        assignment = BucketAssignmentMsg(epoch=1, assignment=((0, 1), (1, 2)))
        assert assignment.wire_size() == 16 + 16

    def test_client_endpoint_disjoint_from_nodes(self):
        assert client_endpoint(0) > 100_000
