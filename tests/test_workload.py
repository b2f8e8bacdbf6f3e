"""Unit tests for workload generation and fault-schedule builders."""

import pytest

from repro.core.config import ISSConfig, WorkloadConfig
from repro.runtime.faults import (
    CRASH_EPOCH_END,
    CRASH_EPOCH_START,
    ByzantineSpec,
    CrashSpec,
    LinkFaultSpec,
    MaliciousClientSpec,
    MembershipSpec,
    RestartSpec,
    StragglerSpec,
    symmetric_split,
)
from repro.sim.faults import FaultInjector
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.core.config import NetworkConfig
from repro.workload.faults import epoch_end_crashes, epoch_start_crashes, stragglers
from repro.workload.generator import WorkloadGenerator


class FakeClient:
    """Stands in for repro.core.client.Client in generator unit tests."""

    def __init__(self, window=10_000):
        self.submitted = []
        self.window = window

    def outstanding_within_watermarks(self):
        return len(self.submitted) < self.window

    def submit(self, payload):
        self.submitted.append(payload)
        return object()


class TestWorkloadGenerator:
    def run_generator(self, rate=200.0, duration=5.0, clients=4, window=10_000):
        sim = Simulator(seed=3)
        fake_clients = [FakeClient(window) for _ in range(clients)]
        workload = WorkloadConfig(num_clients=clients, total_rate=rate, duration=duration, payload_size=16)
        generator = WorkloadGenerator(fake_clients, workload, sim)
        generator.start()
        sim.run(until=duration + 1)
        return generator, fake_clients

    def test_total_rate_approximately_respected(self):
        generator, clients = self.run_generator(rate=400.0, duration=5.0)
        total = sum(len(c.submitted) for c in clients)
        assert 1500 < total < 2500  # 2000 expected

    def test_load_split_across_clients(self):
        generator, clients = self.run_generator(rate=400.0, duration=5.0, clients=4)
        counts = [len(c.submitted) for c in clients]
        assert min(counts) > 0.5 * max(counts)

    def test_no_submissions_after_duration(self):
        sim = Simulator(seed=3)
        clients = [FakeClient()]
        workload = WorkloadConfig(num_clients=1, total_rate=100.0, duration=2.0, payload_size=16)
        generator = WorkloadGenerator(clients, workload, sim)
        generator.start()
        sim.run(until=2.0)
        count_at_end = len(clients[0].submitted)
        sim.run(until=10.0)
        assert len(clients[0].submitted) == count_at_end

    def test_watermark_window_defers_submissions(self):
        generator, clients = self.run_generator(rate=1000.0, duration=2.0, clients=1, window=50)
        assert len(clients[0].submitted) == 50
        assert generator.deferred > 0

    def test_payload_size_respected(self):
        generator, clients = self.run_generator(rate=50.0, duration=1.0, clients=1)
        assert all(len(p) == 16 for p in clients[0].submitted)

    def test_on_submit_callback(self):
        sim = Simulator(seed=3)
        seen = []
        clients = [FakeClient()]
        workload = WorkloadConfig(num_clients=1, total_rate=100.0, duration=1.0, payload_size=8)
        generator = WorkloadGenerator(clients, workload, sim, on_submit=lambda req, t: seen.append(t))
        generator.start()
        sim.run(until=2.0)
        assert len(seen) == len(clients[0].submitted)

    def test_stop_halts_arrivals(self):
        sim = Simulator(seed=3)
        clients = [FakeClient()]
        workload = WorkloadConfig(num_clients=1, total_rate=100.0, duration=10.0, payload_size=8)
        generator = WorkloadGenerator(clients, workload, sim)
        generator.start()
        sim.run(until=1.0)
        generator.stop()
        count = len(clients[0].submitted)
        sim.run(until=10.0)
        assert len(clients[0].submitted) == count

    def test_requires_clients(self):
        with pytest.raises(ValueError):
            WorkloadGenerator([], WorkloadConfig(), Simulator())


class TestFaultSchedules:
    def test_epoch_start_crashes_pick_distinct_high_nodes(self):
        specs = epoch_start_crashes(2, num_nodes=8, epoch=1)
        assert [s.node for s in specs] == [7, 6]
        assert all(s.trigger == CRASH_EPOCH_START and s.epoch == 1 for s in specs)

    def test_epoch_end_crashes(self):
        specs = epoch_end_crashes(1, num_nodes=4)
        assert specs[0].trigger == CRASH_EPOCH_END
        assert specs[0].node == 3

    def test_stragglers(self):
        specs = stragglers(2, num_nodes=8, delay=3.0)
        assert all(isinstance(s, StragglerSpec) and s.delay == 3.0 for s in specs)
        assert all(s.propose_empty for s in specs)

    def test_cannot_fault_every_node(self):
        with pytest.raises(ValueError):
            epoch_start_crashes(4, num_nodes=4)
        with pytest.raises(ValueError):
            stragglers(-1, num_nodes=4)

    def test_crash_spec_validates_trigger(self):
        with pytest.raises(ValueError):
            CrashSpec(node=0, trigger="whenever")


class TestFaultInjector:
    def make_injector(self):
        sim = Simulator(seed=1)
        config = NetworkConfig()
        network = Network(sim, config, LatencyModel(config, 4))
        return sim, network, FaultInjector(sim, network)

    def test_timed_crash(self):
        sim, network, injector = self.make_injector()
        crashed = []
        injector.on_crash = crashed.append
        injector.schedule(CrashSpec(node=2, trigger="at-time", time=1.5))
        sim.run(until=2.0)
        assert crashed == [2]
        assert network.is_crashed(2)

    def test_epoch_start_crash_triggers_on_notification(self):
        sim, network, injector = self.make_injector()
        injector.schedule(CrashSpec(node=1, trigger=CRASH_EPOCH_START, epoch=2))
        injector.notify_epoch_start(1, 1)
        assert not network.is_crashed(1)
        injector.notify_epoch_start(1, 2)
        assert network.is_crashed(1)

    def test_epoch_end_crash_suppresses_last_proposal(self):
        sim, network, injector = self.make_injector()
        injector.schedule(CrashSpec(node=1, trigger=CRASH_EPOCH_END, epoch=0))
        assert injector.notify_last_proposal(1, 0) is True
        assert network.is_crashed(1)
        # Subsequent notifications are no-ops.
        assert injector.notify_last_proposal(1, 0) is False

    def test_crash_is_idempotent(self):
        sim, network, injector = self.make_injector()
        count = []
        injector.on_crash = count.append
        injector.crash_now(3)
        injector.crash_now(3)
        assert count == [3]
        assert injector.crashed_nodes() == (3,)

    @pytest.mark.parametrize("not_a_spec", [object(), "crash", {"node": 1}, CrashSpec])
    def test_schedule_rejects_non_specs(self, not_a_spec):
        _, _, injector = self.make_injector()
        with pytest.raises(TypeError, match="not a fault spec"):
            injector.schedule(not_a_spec)

    def test_schedule_is_the_one_arming_entry_point(self):
        public = [name for name in vars(FaultInjector) if name.startswith("schedule")]
        assert public == ["schedule"]
        # Every kind goes through it, including the two it arms nothing for.
        _, _, injector = self.make_injector()
        for spec in (
            CrashSpec(node=2, time=1.0),
            RestartSpec(node=2, time=2.0),
            StragglerSpec(node=1),
            ByzantineSpec(node=3),
            MaliciousClientSpec(client=0),
            symmetric_split((0, 1), (2, 3), 1.0, 2.0),
            LinkFaultSpec(src=0, dst=1, block=True),
            MembershipSpec(node=4, time=1.0),
        ):
            injector.schedule(spec)
