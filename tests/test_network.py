"""Unit tests for the simulated WAN network (bandwidth, latency, faults)."""

from dataclasses import dataclass

import pytest

from repro.core.config import NetworkConfig
from repro.core.messages import InstanceMessage
from repro.pbft.messages import Prepare
from repro.runtime.faults import LinkFaultSpec
from repro.sim.latency import LatencyModel
from repro.sim.network import Network, wire_size
from repro.sim.simulator import Simulator


class _Payload:
    """Payload with an explicit wire size, for bandwidth tests."""

    def __init__(self, size: int):
        self._size = size

    def wire_size(self) -> int:
        return self._size


def build_network(num_nodes=4, **overrides):
    config = NetworkConfig(
        bandwidth_bps=overrides.pop("bandwidth_bps", 1e9),
        inter_dc_latency=overrides.pop("inter_dc_latency", 0.05),
        intra_dc_latency=overrides.pop("intra_dc_latency", 0.001),
        jitter=overrides.pop("jitter", 0.0),
        **overrides,
    )
    sim = Simulator(seed=3)
    latency = LatencyModel(config, num_nodes)
    return sim, Network(sim, config, latency)


class Inbox:
    def __init__(self):
        self.messages = []

    def __call__(self, src, message):
        self.messages.append((src, message))


class TestDelivery:
    def test_point_to_point_delivery(self):
        sim, net = build_network()
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        net.send(0, 1, "hello")
        sim.run()
        assert inbox.messages == [(0, "hello")]

    def test_delivery_respects_propagation_latency(self):
        sim, net = build_network(inter_dc_latency=0.1)
        arrival = []
        net.register(0, Inbox())
        net.register(1, lambda src, msg: arrival.append(sim.now))
        net.send(0, 1, _Payload(10))
        sim.run()
        # Cross-datacenter latency is the configured mean scaled by ring
        # distance (between 25% and 175% of the mean), never sub-millisecond.
        assert arrival and 0.1 * 0.25 <= arrival[0] <= 0.1 * 1.75 + 0.01

    def test_unregistered_destination_drops(self):
        sim, net = build_network()
        net.register(0, Inbox())
        net.send(0, 9, "lost")
        sim.run()
        assert net.stats.messages_dropped == 1

    def test_multicast_reaches_all(self):
        sim, net = build_network()
        inboxes = {n: Inbox() for n in range(4)}
        for n, inbox in inboxes.items():
            net.register(n, inbox)
        net.multicast(0, [1, 2, 3], "hi")
        sim.run()
        for n in (1, 2, 3):
            assert inboxes[n].messages == [(0, "hi")]

    def test_stats_count_bytes_per_sender(self):
        sim, net = build_network()
        net.register(0, Inbox())
        net.register(1, Inbox())
        net.send(0, 1, _Payload(1000))
        net.send(0, 1, _Payload(500))
        sim.run()
        assert net.stats.per_node_bytes_sent[0] == 1500
        assert net.stats.per_node_messages_sent[0] == 2


class TestBandwidth:
    def test_nic_serialises_consecutive_sends(self):
        """Two large messages from the same sender arrive one transmission apart."""
        sim, net = build_network(bandwidth_bps=8e6, inter_dc_latency=0.0, intra_dc_latency=0.0)
        arrivals = []
        net.register(0, Inbox())
        net.register(1, lambda src, msg: arrivals.append(sim.now))
        # 1 MB at 8 Mbit/s = 1 second of transmission each.
        net.send(0, 1, _Payload(1_000_000))
        net.send(0, 1, _Payload(1_000_000))
        sim.run()
        assert len(arrivals) == 2
        assert arrivals[1] - arrivals[0] == pytest.approx(1.0, rel=0.05)

    def test_single_sender_bandwidth_bounds_throughput(self):
        """A leader pushing the same batch to n-1 followers pays n-1 transmissions."""
        sim, net = build_network(num_nodes=5, bandwidth_bps=8e6, inter_dc_latency=0.0, intra_dc_latency=0.0)
        last_arrival = []
        for n in range(5):
            net.register(n, lambda src, msg: last_arrival.append(sim.now))
        net.multicast(0, [1, 2, 3, 4], _Payload(1_000_000))
        sim.run()
        # 4 copies of 1 s each must leave the NIC back to back.
        assert max(last_arrival) == pytest.approx(4.0, rel=0.05)

    def test_backlog_reporting(self):
        sim, net = build_network(bandwidth_bps=8e6)
        net.register(0, Inbox())
        net.register(1, Inbox())
        net.send(0, 1, _Payload(1_000_000))
        assert net.nic_backlog(0) == pytest.approx(1.0, rel=0.05)


class TestLinkBandwidth:
    """Per-link queueing (``NetworkConfig.link_bandwidth_bps``), off by default."""

    def _build(self, **overrides):
        # NIC practically infinite so only the link serialises; zero
        # latency/jitter/processing so the queueing delay is exact.
        return build_network(
            bandwidth_bps=overrides.pop("bandwidth_bps", 1e15),
            inter_dc_latency=0.0,
            intra_dc_latency=0.0,
            processing_delay=0.0,
            **overrides,
        )

    def test_saturated_link_queues_back_to_back_messages(self):
        """100-byte messages on an 8 kbit/s link serialise 0.1 s apart."""
        sim, net = self._build(link_bandwidth_bps=8000.0)
        arrivals = []
        net.register(0, Inbox())
        net.register(1, lambda src, msg: arrivals.append(sim.now))
        for _ in range(3):
            net.send(0, 1, _Payload(100))
        sim.run()
        # Each message occupies the link for 100 * 8 / 8000 = 0.1 s; the
        # k-th arrives at exactly k * 0.1 (NIC time is 8e-13 s, negligible).
        assert arrivals == pytest.approx([0.1, 0.2, 0.3], abs=1e-6)

    def test_links_queue_independently(self):
        """Saturating 0→1 must not delay 0→2 (per-link, not per-NIC, queueing)."""
        sim, net = self._build(link_bandwidth_bps=8000.0)
        arrivals = {1: [], 2: []}
        net.register(0, Inbox())
        net.register(1, lambda src, msg: arrivals[1].append(sim.now))
        net.register(2, lambda src, msg: arrivals[2].append(sim.now))
        for _ in range(3):
            net.send(0, 1, _Payload(100))
        net.send(0, 2, _Payload(100))
        sim.run()
        assert arrivals[1] == pytest.approx([0.1, 0.2, 0.3], abs=1e-6)
        # The 0→2 link saw one message only: one transmission, no queue.
        assert arrivals[2] == pytest.approx([0.1], abs=1e-6)

    def test_disabled_by_default(self):
        """link_bandwidth_bps=0 (default) adds no delay beyond the NIC model."""
        sim, net = self._build()
        arrivals = []
        net.register(0, Inbox())
        net.register(1, lambda src, msg: arrivals.append(sim.now))
        for _ in range(3):
            net.send(0, 1, _Payload(100))
        sim.run()
        assert all(t == pytest.approx(0.0, abs=1e-6) for t in arrivals)

    def test_link_queue_waits_for_nic_departure(self):
        """Link serialisation starts after the sender NIC releases the message."""
        sim, net = self._build(bandwidth_bps=8e6, link_bandwidth_bps=8e6)
        arrivals = []
        net.register(0, Inbox())
        net.register(1, lambda src, msg: arrivals.append(sim.now))
        # 1 MB at 8 Mbit/s: 1 s on the NIC, then 1 s on the link.
        net.send(0, 1, _Payload(1_000_000))
        sim.run()
        assert arrivals == pytest.approx([2.0], rel=0.01)


class TestFaults:
    def test_crashed_sender_messages_dropped(self):
        sim, net = build_network()
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        net.crash(0)
        net.send(0, 1, "x")
        sim.run()
        assert inbox.messages == []

    def test_crashed_receiver_messages_dropped(self):
        sim, net = build_network()
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        net.crash(1)
        net.send(0, 1, "x")
        sim.run()
        assert inbox.messages == []

    def test_crash_after_send_drops_in_flight(self):
        sim, net = build_network(inter_dc_latency=0.5)
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        net.send(0, 1, "x")
        net.crash(1)
        sim.run()
        assert inbox.messages == []

    def test_recover_restores_connectivity(self):
        sim, net = build_network()
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        net.crash(1)
        net.recover(1)
        net.send(0, 1, "x")
        sim.run()
        assert len(inbox.messages) == 1

    def test_partition_blocks_cross_group_traffic(self):
        sim, net = build_network()
        inboxes = {n: Inbox() for n in range(4)}
        for n, inbox in inboxes.items():
            net.register(n, inbox)
        net.partition([[0, 1], [2, 3]])
        net.send(0, 1, "same-side")
        net.send(0, 2, "cross")
        sim.run()
        assert len(inboxes[1].messages) == 1
        assert len(inboxes[2].messages) == 0

    def test_heal_partition(self):
        sim, net = build_network()
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(2, inbox)
        net.partition([[0], [2]])
        net.heal_partition()
        net.send(0, 2, "x")
        sim.run()
        assert len(inbox.messages) == 1

    def test_link_filter_can_drop(self):
        sim, net = build_network()
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        net.add_link_filter(lambda src, dst, msg: msg != "drop-me")
        net.send(0, 1, "drop-me")
        net.send(0, 1, "keep-me")
        sim.run()
        assert [m for _, m in inbox.messages] == ["keep-me"]

    def test_random_drop_rate(self):
        sim, net = build_network(drop_rate=0.5)
        inbox = Inbox()
        net.register(0, Inbox())
        net.register(1, inbox)
        for _ in range(200):
            net.send(0, 1, "x")
        sim.run()
        assert 30 < len(inbox.messages) < 170


class TestWireSize:
    def test_wire_size_uses_explicit_method(self):
        assert wire_size(_Payload(123)) == 123

    def test_wire_size_default_for_plain_objects(self):
        assert wire_size("some string") == 96

    def test_wire_size_uses_size_bytes(self):
        from tests.conftest import make_request

        request = make_request(payload=b"x" * 100)
        assert wire_size(request) == request.size_bytes()


# --------------------------------------------------- multicast ≡ send loop
_NODES = 6


@dataclass(frozen=True)
class _Blob:
    """Unbatchable payload of a stated size, comparable across runs."""

    size: int

    def wire_size(self) -> int:
        return self.size


def _stats(net):
    """``NetworkStats`` as plain values (its Counters as dicts)."""
    return {
        name: dict(value) if isinstance(value, dict) else value
        for name, value in vars(net.stats).items()
    }


def _vote(sn):
    """A batchable protocol message (the envelope defers to the vote)."""
    return InstanceMessage((0, 0), Prepare(view=0, sn=sn, digest=b"d" * 32))


def _crashed_destination(net):
    net.crash(2)


def _partition_with_bridge(net):
    net.partition([[0, 1], [2, 3, 4]], bridges=[3])


def _vetoing_filter(net):
    net.add_link_filter(
        lambda src, dst, message: dst != 2
        and not (dst == 4 and isinstance(message, InstanceMessage))
    )


def _lossy_links(net):
    return [
        net.install_link_fault(
            LinkFaultSpec(
                src=0, dst=1, loss_rate=0.4, duplicate_rate=0.4,
                extra_delay=0.004, retransmit=0.01, seed=7,
            )
        ),
        net.install_link_fault(LinkFaultSpec(src=0, dst=3, loss_rate=0.5, seed=8)),
        net.install_link_fault(LinkFaultSpec(src=1, dst=0, duplicate_rate=1.0, seed=9)),
    ]


def _rewriting_adversary(net):
    def hook(dst, message):
        if dst == 1:
            return [_Blob(7_000)]  # tampered: bigger and not batchable
        if dst == 2:
            return []  # withheld
        if dst == 3:
            return [message, _vote(99)]  # the original plus a forgery
        return [message]

    net.set_adversary(0, hook)


_MULTICAST_SCENARIOS = {
    "plain": lambda net: None,
    "crashed-destination": _crashed_destination,
    "partition-with-bridge": _partition_with_bridge,
    "vetoing-filter": _vetoing_filter,
    "lossy-links": _lossy_links,
    "rewriting-adversary": _rewriting_adversary,
}


def _drive(scenario, flush_interval, fan_out):
    """Run one fixed traffic pattern; return everything observable."""
    sim, net = build_network(
        num_nodes=_NODES, jitter=0.2, drop_rate=0.05,
        batch_flush_interval=flush_interval,
    )
    deliveries = []
    for node in range(_NODES):
        net.register(
            node,
            lambda src, message, node=node: deliveries.append(
                (sim.now, node, src, message)
            ),
        )
    faults = _MULTICAST_SCENARIOS[scenario](net) or []
    proposal = _Blob(4_000)
    for step in range(12):
        src = step % 2
        dsts = [node for node in range(_NODES) if node != src]
        fan_out(net, src, dsts, _vote(step))
        if step % 3 == 0:
            fan_out(net, src, dsts, proposal)
        if step % 4 == 0:
            fan_out(net, src, dsts[::-1], _vote(step))
        sim.run(until=sim.now + 0.003)
    sim.run()
    return {
        "stats": _stats(net),
        "deliveries": deliveries,
        "events": sim.events_executed,
        "now": sim.now,
        "net_rng": net._rng.getstate(),
        "sim_rng": sim.rng.getstate(),
        "faults": [(fault.stats(), fault._rng.getstate()) for fault in faults],
        "batcher": net.batcher.stats.as_dict() if net.batcher else None,
    }


def _by_multicast(net, src, dsts, message):
    net.multicast(src, dsts, message)


def _by_send_loop(net, src, dsts, message):
    for dst in dsts:
        net.send(src, dst, message)


class TestMulticastEquivalence:
    """``multicast(src, dsts, m)`` is ``for d in dsts: send(src, d, m)``."""

    @pytest.mark.parametrize("flush_interval", [0.0, 0.002], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("scenario", sorted(_MULTICAST_SCENARIOS))
    def test_same_schedule_as_send_loop(self, scenario, flush_interval):
        multicast = _drive(scenario, flush_interval, _by_multicast)
        loop = _drive(scenario, flush_interval, _by_send_loop)
        assert multicast["deliveries"], "scenario delivered nothing"
        for key in loop:
            assert multicast[key] == loop[key], key

    @pytest.mark.parametrize("flush_interval", [0.0, 0.002], ids=["unbatched", "batched"])
    def test_scenarios_exercise_their_fault(self, flush_interval):
        """Guard against vacuous equivalence: each scenario really bites."""
        plain = _drive("plain", flush_interval, _by_multicast)
        assert plain["stats"]["dropped_by_cause"].get("random", 0) > 0
        causes = {
            "crashed-destination": "crash",
            "partition-with-bridge": "partition",
            "vetoing-filter": "link-filter",
            "lossy-links": "link-fault",
        }
        for scenario, cause in causes.items():
            run = _drive(scenario, flush_interval, _by_multicast)
            assert run["stats"]["dropped_by_cause"].get(cause, 0) > 0, scenario
        lossy = _drive("lossy-links", flush_interval, _by_multicast)
        assert lossy["stats"]["retransmissions"] > 0
        assert any(stats["payloads_duplicated"] for stats, _ in lossy["faults"])
        bridged = _drive("partition-with-bridge", flush_interval, _by_multicast)
        assert any(dst == 3 for _, dst, src, _ in bridged["deliveries"] if src == 0)
        assert not any(dst == 4 for _, dst, src, _ in bridged["deliveries"] if src == 0)

    def test_tampered_outputs_are_remeasured(self):
        """An adversary's rewrite is charged its own size and batchability,
        not the size the multicast measured once for the original."""
        sim, net = build_network(num_nodes=4, batch_flush_interval=0.002)
        inboxes = [Inbox() for _ in range(4)]
        for node, inbox in enumerate(inboxes):
            net.register(node, inbox)
        vote = _vote(1)
        big = _Blob(7_000)
        net.set_adversary(0, lambda dst, message: [big] if dst == 1 else [message])
        net.multicast(0, [1, 2, 3], vote)
        # The rewrite is not batchable, so it left immediately at its size.
        assert net.stats.bytes_sent == 7_000
        assert net.batcher.pending_payloads() == 2
        sim.run()
        assert inboxes[1].messages == [(0, big)]
        assert inboxes[2].messages == inboxes[3].messages == [(0, vote)]
        assert net.stats.bytes_sent == 7_000 + 2 * wire_size(vote)

    @pytest.mark.parametrize("flush_interval", [0.0, 0.002], ids=["unbatched", "batched"])
    def test_own_copy_short_circuits_in_place(self, flush_interval):
        """``src`` among ``dsts``: handed to its handler at the current time,
        at its position in the order, without wire cost or adversary."""

        def run(fan_out):
            sim, net = build_network(num_nodes=4, batch_flush_interval=flush_interval)
            log = []
            for node in range(4):
                net.register(
                    node,
                    lambda src, message, node=node: log.append((sim.now, node, src, message)),
                )
            net.set_adversary(1, lambda dst, message: [])
            sim.run(until=0.5)
            fan_out(sim, net, 1, _vote(1))  # the adversary eats every wire copy
            fan_out(sim, net, 2, _vote(2))
            fan_out(sim, net, 2, _Blob(3_000))
            sim.run()
            return log, _stats(net), sim.events_executed

        def multicast(sim, net, src, message):
            net.multicast(src, range(4), message)

        def by_hand(sim, net, src, message):
            for dst in range(4):
                if dst == src:
                    sim.call_soon(lambda: net._handlers[src](src, message))
                else:
                    net.send(src, dst, message)

        log, stats, events = run(multicast)
        assert (log, stats, events) == run(by_hand)
        own = [entry for entry in log if entry[1] == entry[2]]
        assert [(when, node) for when, node, _, _ in own] == [(0.5, 1), (0.5, 2), (0.5, 2)]
        # Only the three wire copies of each of node 2's multicasts count.
        assert stats["messages_sent"] == 6
