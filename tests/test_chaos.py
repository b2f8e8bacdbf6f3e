"""Tests for the network-chaos subsystem: partitions, degraded links,
partition-aware recovery and the client retry loop.

Unit layers first (spec validation, network-level drop/duplicate/flap/
retransmit semantics, interaction with wire batching), then small
integration runs pinning the reconvergence machinery (heal-triggered
catch-up, client retry completion, view-change jitter determinism).
"""

import pytest

from repro.core.config import (
    CLIENT_RETRY_BACKOFF,
    CLIENT_RETRY_JITTER,
    STALLED_CATCHUP_GRACE,
    VIEW_CHANGE_JITTER,
    ConfigError,
    ISSConfig,
    NetworkConfig,
    WorkloadConfig,
)
from repro.core.client import Client
from repro.crypto.signatures import KeyStore
from repro.harness import scenarios
from repro.harness.invariants import (
    check_invariants,
    check_prefix_identity,
    delivered_trace,
    traces_agree,
)
from repro.harness.runner import Deployment
from repro.runtime.faults import LinkFaultSpec, PartitionSpec, symmetric_split
from repro.runtime.wire import register_batchable
from repro.sim.chaos import DROP_CAUSES
from repro.sim.faults import FaultInjector
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.workload.faults import (
    bridge_partition,
    flapping_links,
    minority_partition,
    one_way_blocks,
)


def build_network(num_nodes=4, **overrides):
    config = NetworkConfig(jitter=0.0, **overrides)
    sim = Simulator(seed=3)
    return sim, Network(sim, config, LatencyModel(config, num_nodes))


class Inbox:
    def __init__(self):
        self.messages = []

    def __call__(self, src, message):
        self.messages.append((src, message))


class TestPartitionSpecValidation:
    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            PartitionSpec(groups=((0, 1, 2),), start_time=1.0, heal_time=2.0)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            PartitionSpec(groups=((0,), ()), start_time=1.0, heal_time=2.0)

    def test_rejects_endpoint_in_two_groups(self):
        with pytest.raises(ValueError):
            PartitionSpec(groups=((0, 1), (1, 2)), start_time=1.0, heal_time=2.0)

    def test_rejects_bridge_inside_a_group(self):
        with pytest.raises(ValueError):
            PartitionSpec(
                groups=((0, 1), (2,)), start_time=1.0, heal_time=2.0, bridges=(2,)
            )

    def test_heal_must_follow_start(self):
        with pytest.raises(ValueError):
            PartitionSpec(groups=((0,), (1,)), start_time=2.0, heal_time=2.0)

    def test_injector_rejects_overlapping_partitions(self):
        sim, net = build_network()
        injector = FaultInjector(sim, net)
        injector.schedule(symmetric_split((0, 1), (2, 3), 1.0, 5.0))
        with pytest.raises(ValueError):
            injector.schedule(symmetric_split((0, 2), (1, 3), 4.0, 6.0))
        # Non-overlapping back-to-back schedules are fine.
        injector.schedule(symmetric_split((0, 1), (2, 3), 5.0, 6.0))


class TestLinkFaultSpecValidation:
    def test_needs_distinct_endpoints(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(src=1, dst=1, block=True)

    def test_needs_an_effect(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(src=0, dst=1)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(src=0, dst=1, loss_rate=1.0)

    def test_flap_up_bounds(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(src=0, dst=1, flap_period=2.0, flap_up=1.0)

    def test_retransmit_must_be_non_negative(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(src=0, dst=1, loss_rate=0.5, retransmit=-1.0)

    def test_retransmit_cannot_cross_a_block(self):
        # A one-way block is routing-level unreachability, not packet loss;
        # retransmission must not be able to tunnel through it.
        with pytest.raises(ValueError):
            LinkFaultSpec(src=0, dst=1, block=True, retransmit=0.5)

    def test_stalled_catchup_grace_validation(self):
        # The grace is a protocol constant: the vestigial field accepts only
        # its one value, and a negative or disabling value is refused.
        assert ISSConfig(num_nodes=4).stalled_catchup_grace == STALLED_CATCHUP_GRACE
        ISSConfig(num_nodes=4, stalled_catchup_grace=STALLED_CATCHUP_GRACE)
        for value in (-1.0, 0.0, 5.0):
            with pytest.raises(ConfigError):
                ISSConfig(num_nodes=4, stalled_catchup_grace=value)


class TestLinkFaultSemantics:
    def test_one_way_block_is_directional(self):
        sim, net = build_network()
        fwd, rev = Inbox(), Inbox()
        net.register(0, rev)
        net.register(1, fwd)
        net.install_link_fault(LinkFaultSpec(src=0, dst=1, block=True))
        net.send(0, 1, "blocked")
        net.send(1, 0, "open")
        sim.run()
        assert fwd.messages == []
        assert rev.messages == [(1, "open")]
        assert net.stats.dropped_by_cause["link-fault"] == 1

    def test_loss_is_deterministic_per_seed(self):
        def drop_pattern():
            sim, net = build_network()
            inbox = Inbox()
            net.register(0, Inbox())
            net.register(1, inbox)
            net.install_link_fault(LinkFaultSpec(src=0, dst=1, loss_rate=0.5, seed=7))
            for i in range(50):
                net.send(0, 1, i)
            sim.run()
            return [msg for _, msg in inbox.messages]

        first, second = drop_pattern(), drop_pattern()
        assert first == second
        assert 0 < len(first) < 50

    def test_duplication_delivers_extra_copies(self):
        sim, net = build_network()
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        fault = net.install_link_fault(
            LinkFaultSpec(src=0, dst=1, duplicate_rate=1.0)
        )
        for i in range(5):
            net.send(0, 1, i)
        sim.run()
        assert len(inbox.messages) == 10
        assert fault.payloads_duplicated == 5

    def test_flapping_is_a_pure_function_of_time(self):
        sim, net = build_network()
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        # Up for [0, 1), down for [1, 2), per 2 s cycle anchored at t=0.
        net.install_link_fault(
            LinkFaultSpec(src=0, dst=1, flap_period=2.0, flap_up=0.5)
        )
        sim.schedule_at(0.5, lambda: net.send(0, 1, "up-phase"))
        sim.schedule_at(1.5, lambda: net.send(0, 1, "down-phase"))
        sim.schedule_at(2.5, lambda: net.send(0, 1, "up-again"))
        sim.run()
        assert [msg for _, msg in inbox.messages] == ["up-phase", "up-again"]

    def test_retransmit_recovers_every_lost_payload(self):
        sim, net = build_network()
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        fault = net.install_link_fault(
            LinkFaultSpec(src=0, dst=1, loss_rate=0.6, retransmit=0.2, seed=11)
        )
        for i in range(40):
            net.send(0, 1, i)
        sim.run()
        # Loss degrades latency, never correctness: every payload arrives.
        assert sorted(msg for _, msg in inbox.messages) == list(range(40))
        assert fault.payloads_retransmitted > 0
        assert fault.payloads_retransmitted == fault.payloads_dropped

    def test_bridge_passes_cross_group_traffic(self):
        sim, net = build_network()
        inboxes = {n: Inbox() for n in range(3)}
        for n, inbox in inboxes.items():
            net.register(n, inbox)
        net.partition([(0,), (1,)], bridges=(2,))
        net.send(0, 1, "cross")
        net.send(0, 2, "to-bridge")
        net.send(2, 1, "from-bridge")
        sim.run()
        assert inboxes[1].messages == [(2, "from-bridge")]
        assert inboxes[2].messages == [(0, "to-bridge")]
        assert net.stats.dropped_by_cause["partition"] == 1

    def test_drop_causes_are_attributed_separately(self):
        sim, net = build_network()
        for n in range(4):
            net.register(n, Inbox())
        net.install_link_fault(LinkFaultSpec(src=0, dst=1, block=True))
        net.partition([(0, 1), (2,)])
        net.crash(3)
        net.send(0, 1, "link")
        net.send(0, 2, "partition")
        net.send(0, 3, "crash")
        sim.run()
        by_cause = net.stats.dropped_by_cause
        assert by_cause["link-fault"] == 1
        assert by_cause["partition"] == 1
        assert by_cause["crash"] == 1
        assert net.stats.messages_dropped == 3
        assert set(by_cause) <= set(DROP_CAUSES)


class _BatchableProbe:
    """Tiny batchable payload for the batching-interaction tests."""

    def __init__(self, value):
        self.value = value

    def wire_size(self):
        return 8


register_batchable(_BatchableProbe)


class TestBatchingInteraction:
    """Chaos is payload-accurate: wire batching can neither hide nor
    amplify drops, and faults installed mid-run apply to payloads already
    heading for the batcher."""

    def _run(self, flush_interval, fault=None, install_at=None, count=20):
        sim, net = build_network(batch_flush_interval=flush_interval)
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        if fault is not None and install_at is None:
            net.install_link_fault(fault)
        elif fault is not None:
            sim.schedule_at(install_at, lambda: net.install_link_fault(fault))
        for i in range(count):
            sim.schedule_at(0.1 * i, lambda i=i: net.send(0, 1, _BatchableProbe(i)))
        sim.run()
        return net, [msg.value for _, msg in inbox.messages]

    def test_block_drops_per_payload_with_batching_on(self):
        fault = LinkFaultSpec(src=0, dst=1, block=True)
        net_off, got_off = self._run(0.0, fault)
        net_on, got_on = self._run(0.05, fault)
        assert got_off == got_on == []
        # Every payload is counted individually, batched or not.
        assert net_off.stats.dropped_by_cause["link-fault"] == 20
        assert net_on.stats.dropped_by_cause["link-fault"] == 20

    def test_loss_pattern_identical_batched_and_unbatched(self):
        # Drop decisions run per payload *before* the batching detour, from
        # a per-fault RNG — so the same seed drops the same payloads
        # whether or not the survivors then coalesce into frames.
        fault_args = dict(src=0, dst=1, loss_rate=0.4, seed=13)
        _, got_off = self._run(0.0, LinkFaultSpec(**fault_args))
        _, got_on = self._run(0.05, LinkFaultSpec(**fault_args))
        assert got_off == got_on
        assert 0 < len(got_on) < 20

    def test_mid_run_install_applies_to_later_payloads(self):
        sim, net = build_network(batch_flush_interval=0.05)
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        fault = LinkFaultSpec(src=0, dst=1, block=True)
        sim.schedule_at(0.45, lambda: net.install_link_fault(fault))
        # Two payloads per tick so the survivors genuinely coalesce.
        for i in range(20):
            sim.schedule_at(
                0.1 * (i // 2), lambda i=i: net.send(0, 1, _BatchableProbe(i))
            )
        sim.run()
        got = [msg.value for _, msg in inbox.messages]
        # Payloads sent before the install (t < 0.45 → values 0..9) arrive;
        # everything after hits the block at enqueue time.
        assert got == list(range(10))
        assert net.stats.dropped_by_cause["link-fault"] == 10
        assert net.stats.batches_sent > 0

    def test_partition_drops_counted_per_payload_in_frames(self):
        sim, net = build_network(batch_flush_interval=0.05)
        net.register(0, Inbox())
        net.register(1, Inbox())
        net.partition([(0,), (1,)])
        for i in range(10):
            net.send(0, 1, _BatchableProbe(i))
        sim.run()
        assert net.stats.dropped_by_cause["partition"] == 10


def chaos_test_config(num_nodes=4):
    from repro.harness.scenarios import GRACEFUL, iss_config

    return iss_config("pbft", num_nodes, random_seed=5, **GRACEFUL)


def chaos_test_network():
    from repro.harness.scenarios import scaled_network

    return scaled_network()


def run_partitioned(config=None, partition=(2.0, 6.0), duration=8.0, **kwargs):
    config = config or chaos_test_config()
    deployment = Deployment(
        config,
        network_config=chaos_test_network(),
        workload=WorkloadConfig(num_clients=4, total_rate=100.0, duration=duration),
        faults=minority_partition(
            1, config.num_nodes, partition[0], partition[1]
        ),
        drain_time=10.0,
        **kwargs,
    )
    return deployment, deployment.run()


class TestPartitionRecovery:
    def test_heal_triggers_immediate_catchup(self):
        # Regression: healing used to be a pure connectivity change — the
        # cut-off node sat on its stale epoch until an epoch timer fired.
        # The heal hook must detect it as a laggard and state-transfer it
        # back to the frontier, recording time_to_reconverge.
        deployment, result = run_partitioned()
        records = scenarios.row(deployment, result)["partition_records"]
        assert len(records) == 1
        record = records[0]
        isolated = deployment.config.num_nodes - 1
        assert isolated in record["laggards"]
        assert record["time_to_reconverge"] >= 0.0
        frontiers = {n.log.first_undelivered for n in result.nodes}
        assert len(frontiers) == 1

    def test_clients_complete_through_partition_via_retry(self):
        deployment, result = run_partitioned()
        assert all(
            c.requests_completed == c.requests_submitted for c in result.clients
        )
        assert scenarios.row(deployment, result)["client_retries"] > 0

    def test_bridge_partition_reconverges(self):
        # Neither half has a quorum alone (n=5, quorum 3, split 2|1|2):
        # ordering degrades for the window, then the heal hook plus the
        # view-change recovery machinery pull every node back.
        config = chaos_test_config(num_nodes=5)
        deployment = Deployment(
            config,
            network_config=chaos_test_network(),
            workload=WorkloadConfig(num_clients=4, total_rate=100.0, duration=10.0),
            faults=bridge_partition(5, 2, 2.0, 6.0),
            drain_time=15.0,
        )
        result = deployment.run()
        record = scenarios.row(deployment, result)["partition_records"][0]
        assert record["time_to_reconverge"] >= 0.0
        assert all(
            c.requests_completed == c.requests_submitted for c in result.clients
        )
        assert check_prefix_identity(result.nodes) == []
        # The healed minority reached (at least) the frontier the cluster
        # held when reconvergence was detected; only requests still in
        # flight at the cut-off may separate the logs.
        frontier = max(n.log.first_undelivered for n in result.nodes)
        assert min(n.log.first_undelivered for n in result.nodes) >= frontier - 4

    def test_partition_drops_surface_in_report(self):
        deployment, result = run_partitioned()
        drops = scenarios.row(deployment, result)["drops_by_cause"]
        assert drops["partition"] > 0
        assert drops["link-fault"] == 0

    def test_asymmetric_block_absorbed_without_recovery(self):
        config = chaos_test_config()
        deployment = Deployment(
            config,
            network_config=chaos_test_network(),
            workload=WorkloadConfig(num_clients=4, total_rate=100.0, duration=8.0),
            faults=one_way_blocks([(0, 3)], 2.0, 6.0),
            drain_time=10.0,
        )
        result = deployment.run()
        assert all(
            c.requests_completed == c.requests_submitted for c in result.clients
        )
        assert scenarios.row(deployment, result)["drops_by_cause"]["link-fault"] > 0

    def test_flapping_link_with_retransmit_keeps_liveness(self):
        config = chaos_test_config()
        deployment = Deployment(
            config,
            network_config=chaos_test_network(),
            workload=WorkloadConfig(num_clients=4, total_rate=100.0, duration=8.0),
            faults=flapping_links(
                [(0, 3), (3, 0)], flap_period=2.0, retransmit=0.5, seed=5
            ),
            drain_time=10.0,
        )
        result = deployment.run()
        assert all(
            c.requests_completed == c.requests_submitted for c in result.clients
        )
        faults = scenarios.row(deployment, result)["link_faults"]
        assert sum(f["payloads_retransmitted"] for f in faults) > 0

    def test_lossy_link_stats_surface_per_fault(self):
        config = chaos_test_config()
        deployment = Deployment(
            config,
            network_config=chaos_test_network(),
            workload=WorkloadConfig(num_clients=4, total_rate=100.0, duration=6.0),
            faults=[
                LinkFaultSpec(src=2, dst=1, loss_rate=0.3, retransmit=0.5, seed=9)
            ],
            drain_time=8.0,
        )
        result = deployment.run()
        faults = scenarios.row(deployment, result)["link_faults"]
        assert len(faults) == 1
        assert faults[0]["src"] == 2 and faults[0]["dst"] == 1
        assert faults[0]["payloads_dropped"] > 0
        assert faults[0]["payloads_retransmitted"] == faults[0]["payloads_dropped"]


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff", "raft"])
def test_no_quorum_split_reconverges_on_the_default_config(protocol):
    # A 2|2 split on 4 nodes leaves no side with a quorum.  With the
    # default protocol config — no GRACEFUL overrides, no client retries —
    # every instance must still terminate after heal (SB Termination), so
    # every submitted request completes on identical logs.
    deployment = scenarios.deployment(
        protocol, 4, [symmetric_split((0, 1), (2, 3), 3.0, 9.0)],
        rate=200.0, duration=15.0, drain_time=15.0, seed=7,
    )
    result = deployment.run()
    assert result.report.submitted > 0
    assert result.report.completed == result.report.submitted
    assert traces_agree([delivered_trace(node) for node in result.nodes])
    assert check_invariants(result) == []


class TestDeterminism:
    def test_partitioned_run_is_deterministic(self):
        # Jittered view-change timers, retry jitter, loss RNG — all seeded:
        # the same chaos schedule must replay to the same event count.
        def fingerprint():
            deployment, result = run_partitioned()
            return (
                deployment.sim.events_executed,
                deployment.network.stats.messages_sent,
                [n.log.first_undelivered for n in result.nodes],
            )

        assert fingerprint() == fingerprint()

    def test_recovery_hardening_is_the_default(self):
        # View-change hardening, timer jitter and the stalled-epoch grace
        # are protocol behaviour: a default config runs them, and the
        # vestigial fields read their one legal value.  Client retries stay
        # a per-deployment choice (off unless a timeout is given).
        config = ISSConfig(num_nodes=4, protocol="pbft", epoch_length=16)
        assert config.view_change_jitter == VIEW_CHANGE_JITTER == 0.1
        assert config.stalled_catchup_grace == STALLED_CATCHUP_GRACE == 2.0
        assert config.vc_recovery is True
        assert config.client_retry_backoff == CLIENT_RETRY_BACKOFF == 2.0
        assert config.client_retry_jitter == CLIENT_RETRY_JITTER == 0.1
        assert config.client_retry_timeout == 0.0
        node = Deployment(
            config,
            workload=WorkloadConfig(num_clients=1, total_rate=10.0, duration=1.0),
        ).nodes[0]
        sample = node._make_timeout_jitter(node.manager.segments_for(0)[0])
        draws = [sample() for _ in range(20)]
        assert all(1.0 <= draw < 1.0 + VIEW_CHANGE_JITTER for draw in draws)
        assert len(set(draws)) == len(draws)


class TestClientRetry:
    def _client(self, **overrides):
        config = ISSConfig(
            num_nodes=4, epoch_length=8, batch_rate=None, **overrides
        )
        sim = Simulator(seed=9)
        net_config = NetworkConfig(jitter=0.0)
        network = Network(sim, net_config, LatencyModel(net_config, 4))
        for node in range(4):
            network.register(node, Inbox())
        client = Client(
            client_id=0,
            config=config,
            sim=sim,
            network=network,
            key_store=KeyStore(deployment_seed=8),
        )
        return sim, client

    def test_retries_off_by_default(self):
        sim, client = self._client()
        client.submit(b"payload")
        sim.run(until=30.0)
        assert client.requests_retried == 0
        assert not client._retry_timers

    def test_unanswered_request_is_retried_with_backoff(self):
        sim, client = self._client(
            client_retry_timeout=1.0, client_retry_max_timeout=4.0
        )
        client.submit(b"payload")
        # No node ever answers: timeouts fire after 1, 2, 4, 4, 4, ... s
        # (exponential backoff capped at 4 s), each stretched by at most
        # 10 % jitter — the fifth by 16.5 s, the sixth not before 19 s.
        sim.run(until=16.6)
        assert client.requests_retried == 5

    def test_backoff_delay_grows_and_caps(self):
        _, client = self._client(
            client_retry_timeout=1.0, client_retry_max_timeout=4.0
        )
        delays = [client._retry_delay(attempt) for attempt in range(5)]
        # Un-jittered bases 1, 2, 4, 4, 4: doubling, then the cap; the
        # jitter never stretches a delay by a whole backoff step.
        for delay, base in zip(delays, [1.0, 2.0, 4.0, 4.0, 4.0]):
            assert base <= delay < base * (1.0 + CLIENT_RETRY_JITTER)
        assert delays[0] < delays[1] < delays[2]

    def test_jitter_stretches_but_stays_bounded(self):
        _, client = self._client(
            client_retry_timeout=1.0, client_retry_max_timeout=4.0
        )
        delays = []
        for attempt, base in ((0, 1.0), (1, 2.0), (2, 4.0)):
            delay = client._retry_delay(attempt)
            assert base <= delay < base * (1.0 + CLIENT_RETRY_JITTER)
            delays.append(delay / base)
        # Seeded jitter: every delay is stretched, and by different amounts.
        assert all(ratio > 1.0 for ratio in delays)
        assert len(set(delays)) == len(delays)

    def test_completion_cancels_the_retry_timer(self):
        from repro.core.messages import ClientResponseMsg

        sim, client = self._client(
            client_retry_timeout=1.0, client_retry_max_timeout=4.0
        )
        request = client.submit(b"payload")
        for node in range(client.config.weak_quorum):
            client.on_message(node, ClientResponseMsg(rid=request.rid, sn=0, node=node))
        sim.run(until=10.0)
        assert client.requests_completed == 1
        assert client.requests_retried == 0
        assert not client._retry_timers
