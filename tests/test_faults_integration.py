"""Integration tests for fault scenarios: crashes, stragglers, policies, state transfer."""

import pytest

from repro.core.config import ISSConfig, WorkloadConfig, POLICY_BACKOFF, POLICY_SIMPLE
from repro.core.leader_policy import BackoffPolicy
from repro.core.types import is_nil
from repro.harness.runner import Deployment
from repro.obs import ObsConfig
from repro.workload.faults import epoch_end_crashes, epoch_start_crashes, stragglers


def build(protocol="pbft", num_nodes=4, rate=200.0, duration=20.0, faults=(), obs=None,
          policy_factory=None, **overrides):
    defaults = dict(
        epoch_length=16,
        max_batch_size=32,
        batch_rate=8.0,
        max_batch_timeout=0.5,
        view_change_timeout=3.0,
        epoch_change_timeout=3.0,
    )
    defaults.update(overrides)
    config = ISSConfig(num_nodes=num_nodes, protocol=protocol, **defaults)
    workload = WorkloadConfig(num_clients=4, total_rate=rate, duration=duration, payload_size=128)
    return Deployment(
        config,
        workload=workload,
        faults=faults,
        drain_time=10.0,
        obs=obs,
        policy_factory=policy_factory,
    )


class TestEpochStartVsEpochEndCrash:
    @pytest.fixture(scope="class")
    def reports(self):
        fault_free = build().run().report
        start = build(faults=epoch_start_crashes(1, 4, epoch=0)).run().report
        end = build(faults=epoch_end_crashes(1, 4, epoch=0)).run().report
        return fault_free, start, end

    def test_liveness_under_both_crash_kinds(self, reports):
        _, start, end = reports
        assert start.completed == start.submitted > 0
        assert end.completed == end.submitted > 0

    def test_crashes_increase_latency(self, reports):
        fault_free, start, end = reports
        assert start.latency.mean > fault_free.latency.mean
        assert end.latency.mean > fault_free.latency.mean

    def test_epoch_end_crash_hurts_latency_more(self, reports):
        """The paper: epoch-end failures delay all buckets, epoch-start only the
        faulty leader's (Section 6.4.1, Figure 8)."""
        _, start, end = reports
        assert end.latency.p95 >= start.latency.p95


class TestStragglers:
    @pytest.fixture(scope="class")
    def reports(self):
        clean = build(duration=25.0).run().report
        slow = build(duration=25.0, faults=stragglers(1, 4, delay=2.0)).run().report
        return clean, slow

    def test_straggler_reduces_throughput(self, reports):
        clean, slow = reports
        assert slow.throughput < 0.8 * clean.throughput

    def test_straggler_inflates_latency(self, reports):
        clean, slow = reports
        assert slow.latency.mean > 2 * clean.latency.mean

    def test_straggler_is_not_suspected(self, reports):
        """The straggler stays below the view-change timeout, so no ⊥ entries
        appear in the log (it is Byzantine but not quiet)."""
        deployment = build(duration=15.0, faults=stragglers(1, 4, delay=2.0))
        result = deployment.run()
        assert all(node.nil_committed == 0 for node in result.nodes)

    def test_spiky_delivery_pattern(self):
        """Delivery progresses in bursts gated by the slowest leader (Figure 12)."""
        result = build(
            duration=20.0,
            rate=300.0,
            faults=stragglers(1, 4, delay=2.0),
            obs=ObsConfig(metrics_interval=1.0),
        ).run()
        timeline = [count for _, count in result.report.throughput_timeline]
        idle = sum(1 for v in timeline if v == 0)
        busy = sum(1 for v in timeline if v > 0)
        assert idle > 0 and busy > 0


class TestLeaderPolicies:
    def test_simple_policy_keeps_crashed_node_in_leaderset(self):
        result = build(
            leader_policy=POLICY_SIMPLE,
            faults=epoch_start_crashes(1, 4, epoch=0),
            duration=25.0,
        ).run()
        alive = [n for n in result.nodes if not n.crashed][0]
        crashed = [n.node_id for n in result.nodes if n.crashed][0]
        assert crashed in alive.manager.leaders_for(alive.current_epoch)
        # Every epoch pays for the crashed leader: ⊥ entries keep appearing.
        assert alive.nil_committed >= alive.epochs_completed

    def test_backoff_policy_rebans_crashed_node(self):
        result = build(
            leader_policy=POLICY_BACKOFF,
            policy_factory=lambda config: BackoffPolicy(
                config.num_nodes, config.max_faulty, ban_period=2
            ),
            faults=epoch_start_crashes(1, 4, epoch=0),
            duration=30.0,
        ).run()
        alive = [n for n in result.nodes if not n.crashed][0]
        crashed = [n.node_id for n in result.nodes if n.crashed][0]
        excluded_epochs = [
            e for e in range(alive.current_epoch) if crashed not in alive.manager.leaders_for(e)
        ]
        included_epochs = [
            e for e in range(1, alive.current_epoch) if crashed in alive.manager.leaders_for(e)
        ]
        # BACKOFF bans and periodically re-includes the crashed node.
        assert excluded_epochs
        assert included_epochs

    def test_blacklist_policy_latency_beats_simple(self):
        simple = build(
            leader_policy=POLICY_SIMPLE,
            faults=epoch_start_crashes(1, 4, epoch=0),
            duration=30.0,
        ).run().report
        blacklist = build(
            faults=epoch_start_crashes(1, 4, epoch=0),
            duration=30.0,
        ).run().report
        assert blacklist.latency.mean < simple.latency.mean


class TestStateTransfer:
    def test_lagging_node_catches_up_via_state_transfer(self):
        """A node partitioned for several epochs catches up from checkpoints."""
        deployment = build(duration=25.0, rate=200.0)
        # Partition node 3 from everyone between t=2 and t=14 (several epochs).
        deployment.sim.schedule(2.0, lambda: deployment.network.partition([[0, 1, 2], [3]]))
        deployment.sim.schedule(14.0, deployment.network.heal_partition)
        result = deployment.run()
        lagging = result.nodes[3]
        leader_log = result.nodes[0].log
        assert lagging.state_transfer.transfers_completed > 0
        # The lagging node holds the same prefix as the others.
        common = min(lagging.log.first_undelivered, leader_log.first_undelivered)
        assert common > 0
        for sn in range(common):
            a, b = lagging.log.entry(sn), leader_log.entry(sn)
            if is_nil(a) or is_nil(b):
                assert is_nil(a) == is_nil(b)
            else:
                assert a.digest() == b.digest()
