"""Unit tests for the EpochManager and the Orderer."""

import pytest

from repro.core.config import ISSConfig, POLICY_BLACKLIST
from repro.core.log import Log
from repro.core.manager import EpochManager
from repro.core.membership import MembershipTracker, genesis_view
from repro.core.orderer import Orderer, default_factory
from repro.core.sb import SBContext, SBInstance
from repro.core.segment import epoch_seq_nrs
from repro.core.types import NIL, SegmentDescriptor
from tests.conftest import make_batch, make_request


class RecordingInstance(SBInstance):
    """Minimal SB implementation used to test the Orderer lifecycle."""

    def __init__(self, context):
        super().__init__(context)
        self.started = False
        self.stopped = False
        self.messages = []

    def start(self):
        self.started = True

    def handle_message(self, src, message):
        self.messages.append((src, message))

    def stop(self):
        self.stopped = True


def make_context(segment: SegmentDescriptor, config: ISSConfig) -> SBContext:
    return SBContext(
        node_id=0,
        config=config,
        segment=segment,
        membership=genesis_view(config),
        send_fn=lambda dst, msg: None,
        local_fn=lambda msg: None,
        multicast_fn=lambda dsts, msg: None,
        schedule_fn=lambda delay, fn: None,
        now_fn=lambda: 0.0,
        cut_batch_fn=lambda sn: make_batch(),
        validate_batch_fn=lambda batch: True,
        deliver_fn=lambda sn, value: None,
        pending_fn=lambda: 0,
        timeout_jitter_fn=lambda: 1.0,
    )


class TestEpochManager:
    def make_manager(self, **overrides) -> EpochManager:
        config = ISSConfig(
            num_nodes=overrides.pop("num_nodes", 4),
            epoch_length=overrides.pop("epoch_length", 8),
            min_segment_size=overrides.pop("min_segment_size", 1),
            batch_rate=overrides.pop("batch_rate", 16.0),
            **overrides,
        )
        return EpochManager(config, MembershipTracker(config, None))

    def test_leaders_default_to_all_nodes(self):
        manager = self.make_manager()
        assert manager.leaders_for(0) == [0, 1, 2, 3]

    def test_leaderset_capped_by_min_segment_size(self):
        manager = self.make_manager(num_nodes=8, epoch_length=8, min_segment_size=4)
        assert len(manager.leaders_for(0)) == 2

    def test_capped_leaderset_rotates_across_epochs(self):
        manager = self.make_manager(num_nodes=8, epoch_length=8, min_segment_size=4)
        selections = {tuple(manager.leaders_for(epoch)) for epoch in range(8)}
        assert len(selections) > 1  # different nodes get their turn

    def test_segments_partition_epoch(self):
        manager = self.make_manager()
        segments = manager.segments_for(2)
        sns = sorted(sn for segment in segments for sn in segment.seq_nrs)
        assert sns == list(epoch_seq_nrs(2, 8))

    def test_segments_cached(self):
        manager = self.make_manager()
        assert manager.segments_for(0) is manager.segments_for(0)

    def test_epoch_complete_requires_every_position(self):
        manager = self.make_manager()
        log = Log()
        for sn in range(7):
            log.commit(sn, NIL, epoch=0, now=0.0)
        assert not manager.epoch_complete(0, log)
        log.commit(7, NIL, epoch=0, now=0.0)
        assert manager.epoch_complete(0, log)

    def test_finish_epoch_updates_policy_history(self):
        manager = self.make_manager(leader_policy=POLICY_BLACKLIST)
        log = Log()
        segments = manager.segments_for(0)
        victim = segments[-1].leader
        for segment in segments:
            for sn in segment.seq_nrs:
                entry = NIL if segment.leader == victim else make_batch(make_request(timestamp=sn))
                log.commit(sn, entry, epoch=0, now=0.0)
        manager.finish_epoch(0, log)
        assert victim not in manager.leaders_for(1)

    def test_proposal_interval_scales_with_leaderset(self):
        manager = self.make_manager(batch_rate=16.0)
        assert manager.proposal_interval(0) == pytest.approx(4 / 16.0)

    def test_proposal_interval_zero_without_rate(self):
        manager = self.make_manager(batch_rate=None)
        assert manager.proposal_interval(0) == 0.0


class TestOrderer:
    def test_open_segment_starts_instance(self):
        config = ISSConfig(num_nodes=4, epoch_length=8, batch_rate=None)
        orderer = Orderer(lambda ctx: RecordingInstance(ctx))
        segment = SegmentDescriptor(epoch=0, leader=0, seq_nrs=(0, 1), buckets=(0,))
        instance = orderer.open_segment(make_context(segment, config))
        assert instance.started
        assert orderer.instances[(0, 0)] is instance
        assert orderer.instances_created == 1

    def test_messages_routed_by_instance_id(self):
        config = ISSConfig(num_nodes=4, epoch_length=8, batch_rate=None)
        orderer = Orderer(lambda ctx: RecordingInstance(ctx))
        seg_a = SegmentDescriptor(epoch=0, leader=0, seq_nrs=(0,), buckets=(0,))
        seg_b = SegmentDescriptor(epoch=0, leader=1, seq_nrs=(1,), buckets=(1,))
        a = orderer.open_segment(make_context(seg_a, config))
        b = orderer.open_segment(make_context(seg_b, config))
        assert orderer.instances == {(0, 0): a, (0, 1): b}
        assert (5, 0) not in orderer.instances

    def test_stop_epoch_garbage_collects(self):
        config = ISSConfig(num_nodes=4, epoch_length=8, batch_rate=None)
        orderer = Orderer(lambda ctx: RecordingInstance(ctx))
        seg = SegmentDescriptor(epoch=0, leader=0, seq_nrs=(0,), buckets=(0,))
        instance = orderer.open_segment(make_context(seg, config))
        orderer.stop_epoch(0)
        assert instance.stopped
        assert (0, 0) not in orderer.instances
        assert orderer.instances_stopped == 1

    def test_stop_all(self):
        config = ISSConfig(num_nodes=4, epoch_length=8, batch_rate=None)
        orderer = Orderer(lambda ctx: RecordingInstance(ctx))
        for leader in range(3):
            seg = SegmentDescriptor(epoch=0, leader=leader, seq_nrs=(leader,), buckets=(leader,))
            orderer.open_segment(make_context(seg, config))
        orderer.stop_all()
        assert orderer.instances_stopped == 3
        assert list(orderer.active_instances()) == []

    @pytest.mark.parametrize("protocol", ["pbft", "hotstuff", "raft"])
    def test_default_factory_builds_each_protocol(self, protocol):
        byzantine = protocol != "raft"
        config = ISSConfig(
            num_nodes=4, protocol=protocol, byzantine=byzantine, epoch_length=8, batch_rate=None
        )
        factory = default_factory(config)
        from repro.crypto.signatures import KeyStore

        segment = SegmentDescriptor(epoch=0, leader=0, seq_nrs=(0,), buckets=(0,))
        context = make_context(segment, config)
        context.key_store = KeyStore()
        instance = factory(context)
        assert isinstance(instance, SBInstance)

    def test_default_factory_rejects_unknown_protocol(self):
        config = ISSConfig(num_nodes=4, epoch_length=8, batch_rate=None)
        config.protocol = "unknown"  # bypass __post_init__ validation on purpose
        with pytest.raises(ValueError):
            default_factory(config)


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff", "raft"])
def test_stopped_instances_are_freed_without_cyclic_gc(protocol, monkeypatch):
    """An instance ``stop_epoch`` dropped is freed by reference counting
    alone once the simulator has run past its cancelled timers' deadlines:
    nothing — its timers, its pacer, its sub-protocol state — keeps it in a
    reference cycle or alive."""
    import gc
    import weakref

    from repro.core.config import WorkloadConfig
    from repro.harness.runner import Deployment
    from repro.harness.scenarios import iss_config

    stopped = []
    stop_epoch = Orderer.stop_epoch

    def recording(self, epoch):
        for instance_id in self._by_epoch.get(epoch, ()):
            stopped.append((self.instances[instance_id].context.now(),
                            weakref.ref(self.instances[instance_id])))
        stop_epoch(self, epoch)

    monkeypatch.setattr(Orderer, "stop_epoch", recording)
    deployment = Deployment(
        iss_config(protocol, 4, epoch_length=8, view_change_timeout=2.0,
                   epoch_change_timeout=2.0, election_timeout=(2.0, 4.0)),
        workload=WorkloadConfig(num_clients=4, total_rate=200.0, duration=6.0),
        drain_time=8.0,
    )
    gc.disable()
    try:
        deployment.run()
        # Every timer an instance armed fires within 4 s of arming.
        settled = [ref for at, ref in stopped if at <= deployment.sim.now - 5.0]
        assert settled
        assert [ref() for ref in settled] == [None] * len(settled)
    finally:
        gc.enable()
