"""Unit tests for the leader-side proposal pacer."""

from typing import List, Tuple

from repro.core.config import ISSConfig
from repro.core.pacing import ProposalPacer
from repro.core.sb import SBContext
from repro.core.types import Batch, SegmentDescriptor
from repro.sim.simulator import Simulator
from tests.conftest import make_request


class PacerHarness:
    def __init__(
        self,
        *,
        is_leader: bool = True,
        pending: int = 0,
        proposal_interval: float = 0.0,
        min_batch_timeout: float = 0.0,
        max_batch_timeout: float = 1.0,
        max_batch_size: int = 4,
        proposal_delay: float = 0.0,
        may_propose=None,
        seq_nrs=(0, 1, 2, 3),
    ):
        self.sim = Simulator()
        self.config = ISSConfig(
            num_nodes=4,
            epoch_length=8,
            max_batch_size=max_batch_size,
            batch_rate=None,
            min_batch_timeout=min_batch_timeout,
            max_batch_timeout=max_batch_timeout,
        )
        self.pending = pending
        self.proposals: List[Tuple[float, int, Batch]] = []
        segment = SegmentDescriptor(
            epoch=0, leader=0 if is_leader else 1, seq_nrs=tuple(seq_nrs), buckets=(0,)
        )
        self.context = SBContext(
            node_id=0,
            config=self.config,
            segment=segment,
            all_nodes=[0, 1, 2, 3],
            send_fn=lambda dst, msg: None,
            local_fn=lambda msg: None,
            multicast_fn=lambda dsts, msg: None,
            schedule_fn=self.sim.schedule,
            now_fn=lambda: self.sim.now,
            cut_batch_fn=self._cut,
            validate_batch_fn=lambda batch: True,
            deliver_fn=lambda sn, value: None,
            pending_fn=lambda: self.pending,
            proposal_interval=proposal_interval,
            may_propose_fn=may_propose,
            proposal_delay=proposal_delay,
        )
        self.pacer = ProposalPacer(self.context, self._propose)

    def _cut(self, sn):
        count = min(self.pending, self.config.max_batch_size)
        self.pending -= count
        return Batch.of([make_request(timestamp=sn * 100 + i) for i in range(count)])

    def _propose(self, sn, batch):
        self.proposals.append((self.sim.now, sn, batch))


class TestProposalPacer:
    def test_non_leader_never_proposes(self):
        harness = PacerHarness(is_leader=False, pending=100)
        harness.pacer.start()
        harness.sim.run(until=10.0)
        assert harness.proposals == []

    def test_proposes_all_sequence_numbers_in_order(self):
        harness = PacerHarness(pending=100)
        harness.pacer.start()
        harness.sim.run(until=20.0)
        assert [sn for _, sn, _ in harness.proposals] == [0, 1, 2, 3]
        assert harness.pacer.finished

    def test_respects_proposal_interval(self):
        harness = PacerHarness(pending=1000, proposal_interval=2.0)
        harness.pacer.start()
        harness.sim.run(until=20.0)
        times = [t for t, _, _ in harness.proposals]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 2.0 - 1e-9 for gap in gaps)

    def test_empty_batches_after_max_batch_timeout(self):
        harness = PacerHarness(pending=0, max_batch_timeout=0.5)
        harness.pacer.start()
        harness.sim.run(until=10.0)
        assert len(harness.proposals) == 4
        assert all(len(batch) == 0 for _, _, batch in harness.proposals)
        # Each proposal waited the batch timeout.
        times = [t for t, _, _ in harness.proposals]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 0.5 - 1e-9 for gap in gaps)

    def test_full_batch_proposes_without_waiting_for_timeout(self):
        harness = PacerHarness(pending=1000, max_batch_timeout=5.0)
        harness.pacer.start()
        harness.sim.run(until=30.0)
        assert len(harness.proposals) == 4
        assert harness.proposals[-1][0] < 5.0

    def test_straggler_delay_postpones_each_proposal(self):
        harness = PacerHarness(pending=1000, proposal_delay=1.5)
        harness.pacer.start()
        harness.sim.run(until=30.0)
        times = [t for t, _, _ in harness.proposals]
        assert times[0] >= 1.5
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 1.5 - 1e-9 for gap in gaps)

    def test_may_propose_false_stops_pacer(self):
        calls = []

        def may_propose(sn):
            calls.append(sn)
            return sn < 2

        harness = PacerHarness(pending=1000, may_propose=may_propose)
        harness.pacer.start()
        harness.sim.run(until=30.0)
        assert [sn for _, sn, _ in harness.proposals] == [0, 1]
        assert not harness.pacer.finished

    def test_stop_cancels_future_proposals(self):
        harness = PacerHarness(pending=1000, proposal_interval=1.0)
        harness.pacer.start()
        harness.sim.run(until=1.5)
        harness.pacer.stop()
        count = len(harness.proposals)
        harness.sim.run(until=30.0)
        assert len(harness.proposals) == count

    def test_batch_content_drains_pending(self):
        harness = PacerHarness(pending=6, max_batch_size=4, max_batch_timeout=0.2)
        harness.pacer.start()
        harness.sim.run(until=10.0)
        sizes = [len(batch) for _, _, batch in harness.proposals]
        assert sizes[0] == 4 and sizes[1] == 2
