"""End-to-end total-order tests: all nodes deliver the same request sequence.

The SMR properties are about *per-request* total order (Equation 2), not just
per-batch agreement, so these tests compare the exact delivered request
sequences across nodes, including under faults and unreliable links.
"""

import pytest

from repro.core.config import ISSConfig, NetworkConfig, WorkloadConfig
from repro.harness.runner import Deployment
from repro.workload.faults import epoch_start_crashes


def run_deployment(num_nodes=4, protocol="pbft", duration=8.0, rate=200.0,
                   faults=(), drop_rate=0.0, **overrides):
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
    network = NetworkConfig(drop_rate=drop_rate)
    deployment = Deployment(
        config, network_config=network, workload=workload, faults=faults, drain_time=10.0
    )
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
        """Raft's retransmissions mask a lossy network; order still agrees."""
        result, sequences = run_deployment(
            protocol="raft", num_nodes=3, duration=10.0, rate=100.0, drop_rate=0.05
        )
        alive = [n.node_id for n in result.nodes if not n.crashed]
        assert result.report.completed > 0
        assert_common_prefix(sequences, alive)
