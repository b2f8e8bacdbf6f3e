"""Tests for the PBFT Sequenced-Broadcast implementation."""

import pytest

from repro.core.types import Batch, NIL, SegmentDescriptor, is_nil
from repro.pbft.pbft import PbftSB
from tests.conftest import SBTestBed


def make_bed(num_nodes=4, leader=0, seq_nrs=(0, 1, 2, 3), **kwargs) -> SBTestBed:
    segment = SegmentDescriptor(epoch=0, leader=leader, seq_nrs=tuple(seq_nrs), buckets=(0,))
    return SBTestBed(num_nodes, lambda ctx: PbftSB(ctx), segment=segment, **kwargs)


class TestFaultFree:
    def test_all_nodes_deliver_all_sequence_numbers(self):
        bed = make_bed()
        bed.feed_requests(0, 16)
        bed.start_all()
        bed.run(until=10.0)
        bed.assert_termination()
        bed.assert_agreement()

    def test_delivered_values_match_leader_proposals(self):
        bed = make_bed()
        fed = bed.feed_requests(0, 8)
        bed.start_all()
        bed.run(until=10.0)
        delivered_rids = [
            request.rid
            for sn in bed.segment.seq_nrs
            for request in bed.delivered[1][sn].requests
        ]
        assert delivered_rids == [request.rid for request in fed[:8]]

    def test_no_nil_in_fault_free_run(self):
        bed = make_bed()
        bed.feed_requests(0, 16)
        bed.start_all()
        bed.run(until=10.0)
        for node in range(4):
            assert not any(is_nil(v) for v in bed.delivered[node].values())

    def test_empty_batches_fill_idle_sequence_numbers(self):
        """With no requests, the leader proposes empty batches at the batch timeout."""
        bed = make_bed()
        bed.start_all()
        bed.run(until=10.0)
        bed.assert_termination()
        for value in bed.delivered[0].values():
            assert not is_nil(value)
            assert len(value) == 0

    def test_view_stays_zero_without_faults(self):
        bed = make_bed()
        bed.feed_requests(0, 8)
        bed.start_all()
        bed.run(until=10.0)
        for instance in bed.instances:
            assert instance.view == 0

    def test_non_leader_never_proposes(self):
        bed = make_bed(leader=2)
        bed.feed_requests(2, 8)
        bed.feed_requests(0, 8)  # node 0 has requests but must not propose
        bed.start_all()
        bed.run(until=10.0)
        assert bed.proposed[0] == {}
        assert len(bed.proposed[2]) == 4

    def test_seven_nodes(self):
        bed = make_bed(num_nodes=7, seq_nrs=(0, 1, 2, 3, 4, 5))
        bed.feed_requests(0, 24)
        bed.start_all()
        bed.run(until=15.0)
        bed.assert_termination()
        bed.assert_agreement()


class TestLeaderFailure:
    def test_crashed_leader_leads_to_nil_delivery(self):
        """SB3/SB4: the instance terminates with ⊥ once the leader is suspected."""
        bed = make_bed()
        bed.feed_requests(0, 16)
        bed.crash(0)
        bed.start([1, 2, 3])
        bed.run(until=30.0)
        bed.assert_termination()
        bed.assert_agreement()
        for node in (1, 2, 3):
            assert all(is_nil(v) for v in bed.delivered[node].values())

    def test_leader_crash_mid_segment(self):
        """Batches committed before the crash survive; the rest become ⊥.

        Only one full batch is fed, so the pacer spaces the remaining (empty)
        proposals by the batch timeout and the crash at t=0.5 lands between
        proposals: some positions are already committed, the rest never get
        proposed and must terminate as ⊥.
        """
        bed = make_bed(seq_nrs=(0, 1, 2, 3, 4, 5))
        bed.feed_requests(0, 4)
        bed.start_all()
        bed.run(until=0.5)
        committed_before = dict(bed.delivered[1])
        bed.crash(0)
        bed.run(until=40.0)
        bed.assert_termination()
        bed.assert_agreement()
        for sn, value in committed_before.items():
            assert bed.delivered[1][sn].digest() == value.digest()
        assert any(is_nil(v) for v in bed.delivered[1].values())

    def test_view_change_happened_after_crash(self):
        bed = make_bed()
        bed.crash(0)
        bed.start([1, 2, 3])
        bed.run(until=30.0)
        assert any(inst.view > 0 for inst in bed.instances[1:])

    def test_too_many_crashes_block_progress(self):
        """With more than f crashed nodes the remaining ones cannot commit."""
        bed = make_bed()
        bed.feed_requests(0, 8)
        bed.crash(2)
        bed.crash(3)
        bed.start([0, 1])
        bed.run(until=30.0)
        assert bed.delivered[0] == {} and bed.delivered[1] == {}


class TestFollowerValidation:
    def test_invalid_batches_are_rejected_and_replaced_by_nil(self):
        """Followers refusing a proposal force a view change and ⊥ delivery."""
        bed = SBTestBed(
            4,
            lambda ctx: PbftSB(ctx),
            segment=SegmentDescriptor(epoch=0, leader=0, seq_nrs=(0, 1), buckets=(0,)),
            validate=lambda node, batch: len(batch) == 0,  # reject any non-empty batch
        )
        bed.feed_requests(0, 8)
        bed.start_all()
        bed.run(until=30.0)
        bed.assert_termination()
        for node in bed.correct_nodes():
            assert all(is_nil(v) or len(v) == 0 for v in bed.delivered[node].values())


class TestMessageComplexity:
    def test_quadratic_vote_traffic_per_batch(self):
        """PBFT sends O(n^2) prepare/commit messages per decided batch."""
        bed = make_bed()
        bed.feed_requests(0, 4)
        bed.start_all()
        bed.run(until=10.0)
        n = 4
        decided = len(bed.segment.seq_nrs)
        # Lower bound: each decision needs ~2 * n * (n-1) votes (prepare+commit).
        assert bed.network.stats.messages_sent >= decided * 2 * n * (n - 1) * 0.5


class _LoneInstance:
    """One PbftSB fed by hand: records what it multicasts and reports."""

    def __init__(self, node_id, num_nodes=4, leader=0, seq_nrs=(0, 1)):
        from repro.core.config import ISSConfig
        from repro.core.membership import genesis_view
        from repro.core.sb import SBContext
        from repro.sim.simulator import Simulator

        self.sim = Simulator()
        self.multicasts = []
        self.reports = []
        self.delivered = {}
        segment = SegmentDescriptor(epoch=0, leader=leader, seq_nrs=tuple(seq_nrs), buckets=(0,))
        config = ISSConfig(num_nodes=num_nodes, epoch_length=8, batch_rate=None)
        self.instance = PbftSB(
            SBContext(
                node_id=node_id,
                config=config,
                segment=segment,
                membership=genesis_view(config),
                send_fn=lambda dst, msg: None,
                local_fn=lambda msg: None,
                multicast_fn=lambda dsts, msg: self.multicasts.append(msg),
                schedule_fn=self.sim.schedule,
                now_fn=lambda: self.sim.now,
                cut_batch_fn=lambda sn: Batch.of(()),
                validate_batch_fn=lambda batch: True,
                deliver_fn=self.delivered.__setitem__,
                pending_fn=lambda: 0,
                timeout_jitter_fn=lambda: 1.0,
                report_misbehaviour_fn=lambda kind, node: self.reports.append((kind, node)),
            )
        )


class TestEquivocationDetection:
    """f+1 PREPAREs against the accepted PRE-PREPARE prove the primary
    equivocated: reported exactly once per (slot, view), whichever of the
    proposal and the conflicting votes arrives first."""

    def setup_method(self):
        from repro.pbft.messages import PrePrepare, Prepare
        from tests.conftest import make_batch, make_request

        self.batch = make_batch(make_request(timestamp=1))
        other = make_batch(make_request(timestamp=2))
        self.accepted = {
            sn: PrePrepare(view=0, sn=sn, value=self.batch, digest=self.batch.digest())
            for sn in (0, 1)
        }
        self.agreeing = {
            sn: Prepare(view=0, sn=sn, digest=self.batch.digest()) for sn in (0, 1)
        }
        self.conflicting = {
            sn: Prepare(view=0, sn=sn, digest=other.digest()) for sn in (0, 1)
        }

    def test_conflicting_votes_after_the_proposal(self):
        lone = _LoneInstance(node_id=1)
        pbft = lone.instance
        pbft.handle_message(0, self.accepted[0])
        pbft.handle_message(2, self.conflicting[0])
        assert lone.reports == []  # one vote: a lone liar, not proof
        pbft.handle_message(2, self.conflicting[0])
        assert lone.reports == []  # the same voter again is still one vote
        pbft.handle_message(3, self.conflicting[0])
        assert lone.reports == [("equivocation", 0)]
        pbft.handle_message(0, self.conflicting[0])
        pbft.handle_message(2, self.agreeing[0])
        assert lone.reports == [("equivocation", 0)]  # once per (slot, view)

    def test_conflicting_votes_before_the_proposal(self):
        lone = _LoneInstance(node_id=1)
        pbft = lone.instance
        pbft.handle_message(2, self.conflicting[0])
        pbft.handle_message(3, self.conflicting[0])
        assert lone.reports == []  # nothing accepted to conflict with yet
        pbft.handle_message(0, self.accepted[0])
        assert lone.reports == [("equivocation", 0)]
        pbft.handle_message(0, self.conflicting[0])
        pbft.handle_message(3, self.agreeing[0])
        assert lone.reports == [("equivocation", 0)]

    def test_each_slot_is_reported_separately(self):
        lone = _LoneInstance(node_id=1)
        pbft = lone.instance
        for sn in (0, 1):
            pbft.handle_message(0, self.accepted[sn])
            pbft.handle_message(2, self.conflicting[sn])
            pbft.handle_message(3, self.conflicting[sn])
        assert lone.reports == [("equivocation", 0)] * 2

    def test_agreeing_votes_are_never_evidence(self):
        lone = _LoneInstance(node_id=1)
        pbft = lone.instance
        pbft.handle_message(0, self.accepted[0])
        for voter in (0, 1, 2, 3):
            pbft.handle_message(voter, self.agreeing[0])
        assert lone.reports == []
        # ... and the quorum of them moved the slot on to COMMIT.
        assert [type(m).__name__ for m in lone.multicasts] == ["Prepare", "Commit"]

    @pytest.mark.parametrize("votes_first", [False, True])
    def test_primary_never_reports_its_own_proposal(self, votes_first):
        lone = _LoneInstance(node_id=0)  # the view-0 primary itself
        pbft = lone.instance
        steps = [(0, self.accepted[0]), (2, self.conflicting[0]), (3, self.conflicting[0])]
        for src, message in (steps[1:] + steps[:1]) if votes_first else steps:
            pbft.handle_message(src, message)
        assert lone.reports == []

    def test_new_view_install_checks_votes_already_collected(self):
        """A NEW-VIEW installs pre-prepares without going through
        ``_on_preprepare``; conflicting votes for the new view that are
        already here count against it just the same."""
        from repro.pbft.messages import NewView, PrePrepare, Prepare

        lone = _LoneInstance(node_id=2)
        pbft = lone.instance
        conflicting = Prepare(view=1, sn=0, digest=self.conflicting[0].digest)
        pbft.handle_message(0, conflicting)
        pbft.handle_message(3, conflicting)
        reproposal = PrePrepare(view=1, sn=0, value=self.batch, digest=self.batch.digest())
        filler = PrePrepare(view=1, sn=1, value=NIL, digest=NIL.digest())
        pbft.handle_message(1, NewView(new_view=1, preprepares=(reproposal, filler)))
        assert lone.reports == [("equivocation", 1)]  # view 1's primary


class TestViewChangeAbandonsTheOldView:
    """After sending VIEW-CHANGE for view v+1 a replica takes no further
    part in any view up to v (Castro & Liskov, §4.4): the VIEW-CHANGE it
    sent carries only what it had prepared by then, so a later PREPARE or
    COMMIT in view v could decide a value the new view never learns."""

    def setup_method(self):
        from repro.pbft.messages import PrePrepare, Prepare
        from tests.conftest import make_batch, make_request

        batch = make_batch(make_request(timestamp=1))
        self.proposal = PrePrepare(view=0, sn=0, value=batch, digest=batch.digest())
        self.vote = Prepare(view=0, sn=0, digest=batch.digest())

    @staticmethod
    def sent(lone):
        return [type(m).__name__ for m in lone.multicasts]

    def test_no_prepare_for_the_old_view(self):
        lone = _LoneInstance(node_id=1)
        pbft = lone.instance
        pbft.nudge()  # demands view 1 now
        assert self.sent(lone) == ["ViewChange"]
        pbft.handle_message(0, self.proposal)
        assert self.sent(lone) == ["ViewChange"]

    def test_no_commit_for_the_old_view(self):
        lone = _LoneInstance(node_id=1)
        pbft = lone.instance
        pbft.handle_message(0, self.proposal)
        pbft.nudge()
        assert self.sent(lone) == ["Prepare", "ViewChange"]
        for voter in (0, 1, 2, 3):
            pbft.handle_message(voter, self.vote)
        assert self.sent(lone) == ["Prepare", "ViewChange"]


class TestCommitBookkeeping:
    def test_uncommitted_counter_tracks_slots(self):
        """The O(1) all-committed test agrees with a scan of the slots at
        every step of a run that commits batches, loses its leader, changes
        view and fills the rest with ⊥."""
        bed = make_bed(seq_nrs=(0, 1, 2, 3, 4, 5))
        bed.feed_requests(0, 4)
        bed.start_all()

        def check():
            for instance in bed.instances[1:]:
                scanned = sum(1 for slot in instance._slots.values() if not slot.committed)
                assert instance._uncommitted == scanned
                assert instance._all_committed() == (scanned == 0)

        bed.run(until=0.5)
        check()
        bed.crash(0)
        while bed.sim.pending_events() and bed.sim.now < 40.0:
            bed.sim.run(max_events=7)
            check()
        bed.assert_termination()
        assert any(is_nil(v) for v in bed.delivered[1].values())
        assert any(not is_nil(v) for v in bed.delivered[1].values())
        assert all(instance._all_committed() for instance in bed.instances[1:])
