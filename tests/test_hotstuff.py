"""Tests for the chained-HotStuff Sequenced-Broadcast implementation."""

import pytest

from repro.core.types import NIL, SegmentDescriptor, is_nil
from repro.hotstuff.hotstuff import HotStuffSB
from repro.hotstuff.messages import GENESIS_QC, Block, Proposal
from tests.conftest import SBTestBed


def make_bed(num_nodes=4, leader=0, seq_nrs=(0, 1, 2, 3), **kwargs) -> SBTestBed:
    segment = SegmentDescriptor(epoch=0, leader=leader, seq_nrs=tuple(seq_nrs), buckets=(0,))
    return SBTestBed(num_nodes, lambda ctx: HotStuffSB(ctx), segment=segment, **kwargs)


class TestFaultFree:
    def test_all_nodes_deliver_all_sequence_numbers(self):
        bed = make_bed()
        bed.feed_requests(0, 16)
        bed.start_all()
        bed.run(until=10.0)
        bed.assert_termination()
        bed.assert_agreement()

    def test_pipeline_flush_commits_last_block(self):
        """The three dummy blocks let the final real sequence number commit."""
        bed = make_bed(seq_nrs=(0,))
        bed.feed_requests(0, 4)
        bed.start_all()
        bed.run(until=10.0)
        bed.assert_termination()
        assert not is_nil(bed.delivered[1][0])

    def test_values_match_leader_batches(self):
        bed = make_bed()
        fed = bed.feed_requests(0, 8)
        bed.start_all()
        bed.run(until=10.0)
        delivered = [
            request.rid
            for sn in bed.segment.seq_nrs
            for request in bed.delivered[2][sn].requests
        ]
        assert delivered == [r.rid for r in fed[:8]]

    def test_no_nil_without_faults(self):
        bed = make_bed()
        bed.feed_requests(0, 16)
        bed.start_all()
        bed.run(until=10.0)
        for node in bed.correct_nodes():
            assert not any(is_nil(v) for v in bed.delivered[node].values())

    def test_proposals_are_serialised_behind_certificates(self):
        """Chained HotStuff is latency-bound: one proposal per QC round trip."""
        bed = make_bed()
        bed.feed_requests(0, 100)
        bed.start_all()
        bed.run(until=0.01)  # far less than one WAN round trip
        assert len(bed.proposed[0]) <= 1

    def test_different_leader(self):
        bed = make_bed(leader=3)
        bed.feed_requests(3, 12)
        bed.start_all()
        bed.run(until=10.0)
        bed.assert_termination()
        bed.assert_agreement()


class TestLeaderFailure:
    def test_crashed_leader_yields_nil_for_all(self):
        bed = make_bed()
        bed.feed_requests(0, 8)
        bed.crash(0)
        bed.start([1, 2, 3])
        bed.run(until=60.0)
        bed.assert_termination()
        bed.assert_agreement()
        for node in (1, 2, 3):
            assert all(is_nil(v) for v in bed.delivered[node].values())

    def test_round_change_recorded_after_crash(self):
        bed = make_bed()
        bed.crash(0)
        bed.start([1, 2, 3])
        bed.run(until=60.0)
        assert any(inst.rounds_changed > 0 for inst in bed.instances[1:])

    def test_mid_segment_crash_preserves_committed_prefix(self):
        bed = make_bed(seq_nrs=(0, 1, 2, 3, 4, 5))
        bed.feed_requests(0, 24)
        bed.start_all()
        bed.run(until=1.0)
        committed_before = dict(bed.delivered[1])
        bed.crash(0)
        bed.run(until=80.0)
        bed.assert_termination()
        bed.assert_agreement()
        for sn, value in committed_before.items():
            if not is_nil(value):
                assert bed.delivered[1][sn].digest() == value.digest()


class TestFollowerValidation:
    def test_invalid_batches_are_rejected_and_replaced_by_nil(self):
        """Followers refusing a proposal force a round change and ⊥ delivery."""
        bed = make_bed(
            seq_nrs=(0, 1),
            validate=lambda node, batch: len(batch) == 0,  # reject any non-empty batch
        )
        bed.feed_requests(0, 8)
        bed.start_all()
        bed.run(until=60.0)
        bed.assert_termination()
        for node in bed.correct_nodes():
            assert all(is_nil(v) or len(v) == 0 for v in bed.delivered[node].values())


class TestBlockValidation:
    def test_follower_rejects_batch_from_non_segment_leader(self):
        bed = make_bed()
        bed.start_all()
        bed.run(until=0.1)
        instance = bed.instances[1]
        from repro.core.types import Batch
        from tests.conftest import make_request

        rogue_block = Block(
            view=0,
            round=0,
            sn=0,
            value=Batch.of([make_request()]),
            parent_digest=GENESIS_QC.block_digest,
            justify=GENESIS_QC,
        )
        # Node 2 (not the segment leader) proposes a real batch: rejected.
        assert not instance._validate_block(2, rogue_block)

    def test_duplicate_sequence_number_in_chain_rejected(self):
        bed = make_bed()
        bed.feed_requests(0, 8)
        bed.start_all()
        bed.run(until=10.0)
        instance = bed.instances[1]
        # Craft a block re-using an already-committed sequence number.
        block = Block(
            view=99,
            round=0,
            sn=bed.segment.seq_nrs[0],
            value=NIL,
            parent_digest=instance._high_qc.block_digest,
            justify=instance._high_qc,
        )
        assert not instance._validate_block(0, block)

    def test_quorum_certificate_verification(self):
        bed = make_bed()
        bed.feed_requests(0, 4)
        bed.start_all()
        bed.run(until=10.0)
        instance = bed.instances[0]
        qc = instance._high_qc
        assert qc.signature is not None
        assert instance._threshold.verify(qc.signature, qc.block_digest)
