"""Tests for the single-leader and Mir-BFT baselines."""

import pytest

from repro.baselines.mirbft import MirBFTNode, NewEpochMsg
from repro.baselines.single_leader import FixedLeaderPolicy, single_leader_config, single_leader_policy
from repro.core.config import ISSConfig, WorkloadConfig
from repro.core.leader_policy import FailureHistory
from repro.harness.runner import Deployment
from repro.workload.faults import epoch_start_crashes


class TestFixedLeaderPolicy:
    def test_always_returns_single_leader(self):
        policy = FixedLeaderPolicy(num_nodes=4, max_faulty=1, leader=2)
        for epoch in range(5):
            assert policy.leaders(epoch, FailureHistory()) == [2]

    def test_leader_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FixedLeaderPolicy(num_nodes=4, max_faulty=1, leader=7)

    def test_config_defaults(self):
        config = single_leader_config("pbft", 8)
        assert config.batch_rate is None
        assert config.min_segment_size == 1
        policy = single_leader_policy(config)
        assert policy.leaders(3, FailureHistory()) == [0]


def run_deployment(config, node_class=None, policy_factory=None, faults=(), duration=8.0, rate=200.0):
    workload = WorkloadConfig(num_clients=4, total_rate=rate, duration=duration, payload_size=128)
    kwargs = dict(workload=workload, faults=faults, drain_time=8.0)
    if node_class is not None:
        kwargs["node_class"] = node_class
    if policy_factory is not None:
        kwargs["policy_factory"] = policy_factory
    return Deployment(config, **kwargs).run()


class TestSingleLeaderDeployment:
    def test_single_leader_delivers_everything(self):
        config = single_leader_config(
            "pbft", 4, epoch_length=16, max_batch_size=32, max_batch_timeout=0.5,
            view_change_timeout=3.0, epoch_change_timeout=3.0,
        )
        result = run_deployment(config, policy_factory=lambda c: single_leader_policy(c))
        assert result.report.completed == result.report.submitted > 0

    def test_all_batches_proposed_by_node_zero(self):
        config = single_leader_config(
            "pbft", 4, epoch_length=16, max_batch_size=32, max_batch_timeout=0.5,
            view_change_timeout=3.0, epoch_change_timeout=3.0,
        )
        result = run_deployment(config, policy_factory=lambda c: single_leader_policy(c))
        node = result.nodes[1]
        for epoch in range(node.epochs_completed):
            for segment in node.manager.segments_for(epoch):
                assert segment.leader == 0

    def test_leader_nic_carries_most_traffic(self):
        """The single-leader bandwidth bottleneck is visible in per-node bytes."""
        config = single_leader_config(
            "pbft", 4, epoch_length=16, max_batch_size=32, max_batch_timeout=0.5,
            view_change_timeout=3.0, epoch_change_timeout=3.0,
        )
        result = run_deployment(config, policy_factory=lambda c: single_leader_policy(c))
        per_node = result.network.stats.per_node_bytes_sent
        node_bytes = {n: per_node.get(n, 0) for n in range(4)}
        assert node_bytes[0] > 2 * max(node_bytes[n] for n in (1, 2, 3))


class TestMirBFT:
    def make_config(self, **overrides):
        defaults = dict(
            epoch_length=16, max_batch_size=32, batch_rate=8.0, max_batch_timeout=0.5,
            view_change_timeout=3.0, epoch_change_timeout=3.0,
        )
        defaults.update(overrides)
        return ISSConfig(num_nodes=4, protocol="pbft", **defaults)

    def test_fault_free_equivalent_delivery(self):
        result = run_deployment(self.make_config(), node_class=MirBFTNode)
        assert result.report.completed == result.report.submitted > 0
        node = result.nodes[0]
        assert node.graceful_epoch_changes > 0
        assert node.ungraceful_epoch_changes == 0

    def test_epoch_primary_rotates(self):
        result = run_deployment(self.make_config(), node_class=MirBFTNode)
        node = result.nodes[0]
        primaries = {node.epoch_primary(e) for e in range(4)}
        assert primaries == {0, 1, 2, 3}

    def test_crashed_primary_causes_recurring_ungraceful_epoch_changes(self):
        """Figure 10's phenomenon: every time the crashed node's turn as epoch
        primary comes up, the epoch change times out."""
        result = run_deployment(
            self.make_config(),
            node_class=MirBFTNode,
            faults=epoch_start_crashes(1, 4, epoch=0),
            duration=45.0,
            rate=200.0,
        )
        alive = [n for n in result.nodes if not n.crashed]
        assert all(isinstance(n, MirBFTNode) for n in alive)
        assert any(n.ungraceful_epoch_changes >= 2 for n in alive)
        # Liveness is still preserved.
        assert result.report.completed == result.report.submitted > 0

    def test_new_epoch_message_from_wrong_primary_ignored(self):
        result = run_deployment(self.make_config(), node_class=MirBFTNode, duration=4.0)
        node = [n for n in result.nodes if not n.crashed][0]
        bogus_epoch = node.current_epoch + 5
        wrong_sender = (node.epoch_primary(bogus_epoch) + 1) % 4
        node.on_message(wrong_sender, NewEpochMsg(epoch=bogus_epoch, primary=wrong_sender))
        assert bogus_epoch not in node._new_epoch_received

    def test_mirbft_latency_worse_than_iss_under_crash(self):
        """ISS recovers once; Mir keeps stalling on the crashed primary."""
        crash = epoch_start_crashes(1, 4, epoch=0)
        iss = run_deployment(self.make_config(), faults=crash, duration=40.0)
        mir = run_deployment(self.make_config(), node_class=MirBFTNode, faults=crash, duration=40.0)
        assert mir.report.latency.mean > iss.report.latency.mean
