"""End-to-end total-order tests: all nodes deliver the same request sequence.

The SMR properties are about *per-request* total order (Equation 2), not just
per-batch agreement, so these tests compare the exact delivered request
sequences across nodes, including under faults and unreliable links.
"""

import pytest

from repro.core.config import ISSConfig, WorkloadConfig
from repro.harness import scenarios
from repro.harness.runner import Deployment
from repro.runtime.faults import LinkFaultSpec, StragglerSpec
from repro.workload.faults import epoch_start_crashes


def run_deployment(num_nodes=4, protocol="pbft", duration=8.0, rate=200.0,
                   faults=(), **overrides):
    defaults = dict(
        epoch_length=16,
        max_batch_size=32,
        batch_rate=8.0,
        max_batch_timeout=0.5,
        view_change_timeout=3.0,
        epoch_change_timeout=3.0,
    )
    if protocol == "raft":
        defaults.update(byzantine=False, client_signatures=False, min_segment_size=4,
                        election_timeout=(3.0, 6.0))
    defaults.update(overrides)
    config = ISSConfig(num_nodes=num_nodes, protocol=protocol, **defaults)
    workload = WorkloadConfig(num_clients=4, total_rate=rate, duration=duration, payload_size=64)
    deployment = Deployment(config, workload=workload, faults=faults, drain_time=10.0)
    # Track the exact delivered request sequence per node.
    sequences = {node.node_id: [] for node in deployment.nodes}
    collector_callback = deployment.collector.record_delivery

    def tracking(node_id, delivered):
        sequences[node_id].append((delivered.sn, delivered.request.rid))
        collector_callback(node_id, delivered)

    for node in deployment.nodes:
        node.on_deliver = tracking
    result = deployment.run()
    return result, sequences


def assert_common_prefix(sequences, alive_ids):
    reference_id = min(alive_ids)
    reference = sequences[reference_id]
    for node_id in alive_ids:
        other = sequences[node_id]
        for index in range(min(len(reference), len(other))):
            assert reference[index] == other[index], (
                f"request order diverges at position {index} between nodes "
                f"{reference_id} and {node_id}"
            )


class TestTotalOrder:
    def test_request_sequence_identical_across_nodes(self):
        result, sequences = run_deployment()
        alive = [n.node_id for n in result.nodes if not n.crashed]
        assert_common_prefix(sequences, alive)
        # Request sequence numbers are gapless 0..k at every node (Equation 2).
        for node_id in alive:
            sns = [sn for sn, _ in sequences[node_id]]
            assert sns == list(range(len(sns)))

    def test_request_sequence_identical_under_crash(self):
        result, sequences = run_deployment(
            duration=15.0, faults=epoch_start_crashes(1, 4, epoch=0)
        )
        alive = [n.node_id for n in result.nodes if not n.crashed]
        assert_common_prefix(sequences, alive)

    def test_request_sequence_identical_for_raft(self):
        result, sequences = run_deployment(protocol="raft", num_nodes=3)
        alive = [n.node_id for n in result.nodes if not n.crashed]
        assert_common_prefix(sequences, alive)

    def test_no_request_delivered_twice_at_any_node(self):
        result, sequences = run_deployment(duration=10.0)
        for node_id, sequence in sequences.items():
            rids = [rid for _, rid in sequence]
            assert len(rids) == len(set(rids))

    def test_raft_total_order_with_lossy_links(self):
        """Raft's retransmissions mask lossy links between every pair of
        replicas; order still agrees."""
        lossy = [
            LinkFaultSpec(src=src, dst=dst, loss_rate=0.05, seed=src * 3 + dst)
            for src in range(3)
            for dst in range(3)
            if src != dst
        ]
        result, sequences = run_deployment(
            protocol="raft", num_nodes=3, duration=10.0, rate=100.0, faults=lossy
        )
        alive = [n.node_id for n in result.nodes if not n.crashed]
        assert result.report.extra["dropped_link-fault"] > 0
        assert result.report.completed > 0
        assert_common_prefix(sequences, alive)


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff", "raft"])
def test_no_client_completes_before_in_order_delivery(protocol):
    """A straggling leader keeps its segment's positions open while later
    ones commit.  Clients retrying meanwhile must not gather f+1 replies
    for a request no replica has delivered in order: an acknowledgement
    means delivery, so nothing submitted after it can be ordered first."""
    deployment = scenarios.deployment(
        protocol,
        4,
        [StragglerSpec(node=3, delay=1.5, propose_empty=False)],
        rate=400.0,
        duration=4.0,
        drain_time=6.0,
        seed=7,
        send_client_responses=True,
        client_retry_timeout=0.5,
        client_retry_max_timeout=4.0,
    )
    delivered = set()
    early = []

    def tracking(listener):
        def on_deliver(node_id, item):
            delivered.add(item.request.rid)
            return listener(node_id, item)

        return on_deliver

    def checking(listener):
        def on_complete(client_id, request, submitted_at, now):
            if request.rid not in delivered:
                early.append(request.rid)
            listener(client_id, request, submitted_at, now)

        return on_complete

    for node in deployment.nodes:
        node.on_deliver = tracking(node.on_deliver)
    for client in deployment.clients:
        client.on_complete = checking(client.on_complete)
    result = deployment.run()
    assert result.report.completed > 0
    assert len(early) == 0, f"{len(early)} completions before any in-order delivery"
