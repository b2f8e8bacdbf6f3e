"""Tests for the Raft Sequenced-Broadcast implementation (CFT)."""

import pytest

from repro.core.config import ISSConfig
from repro.core.types import NIL, Batch, SegmentDescriptor, is_nil
from repro.raft.messages import AppendReply, RaftEntry
from repro.raft.raft import FOLLOWER, LEADER, NOOP_SN, RaftSB
from tests.conftest import SBTestBed


def raft_config(num_nodes: int) -> ISSConfig:
    return ISSConfig(
        num_nodes=num_nodes,
        protocol="raft",
        byzantine=False,
        epoch_length=8,
        max_batch_size=4,
        batch_rate=None,
        min_batch_timeout=0.0,
        max_batch_timeout=0.2,
        view_change_timeout=3.0,
        epoch_change_timeout=3.0,
        election_timeout=(2.0, 4.0),
        client_signatures=False,
    )


def make_bed(num_nodes=3, leader=0, seq_nrs=(0, 1, 2, 3), **kwargs) -> SBTestBed:
    segment = SegmentDescriptor(epoch=0, leader=leader, seq_nrs=tuple(seq_nrs), buckets=(0,))
    return SBTestBed(
        num_nodes,
        lambda ctx: RaftSB(ctx),
        segment=segment,
        config=raft_config(num_nodes),
        **kwargs,
    )


class TestFaultFree:
    def test_all_nodes_deliver_all_sequence_numbers(self):
        bed = make_bed()
        bed.feed_requests(0, 16)
        bed.start_all()
        bed.run(until=10.0)
        bed.assert_termination()
        bed.assert_agreement()

    def test_values_match_leader_batches(self):
        bed = make_bed()
        fed = bed.feed_requests(0, 8)
        bed.start_all()
        bed.run(until=10.0)
        delivered = [
            request.rid
            for sn in bed.segment.seq_nrs
            for request in bed.delivered[1][sn].requests
        ]
        assert delivered == [r.rid for r in fed[:8]]

    def test_initial_leader_is_segment_leader_without_election(self):
        bed = make_bed(leader=1)
        bed.feed_requests(1, 8)
        bed.start_all()
        bed.run(until=10.0)
        assert bed.instances[1].role == LEADER
        assert bed.instances[1].term == 0
        assert bed.instances[1].elections_started == 0
        bed.assert_termination()

    def test_five_nodes(self):
        bed = make_bed(num_nodes=5, seq_nrs=(0, 1, 2, 3, 4, 5))
        bed.feed_requests(0, 24)
        bed.start_all()
        bed.run(until=15.0)
        bed.assert_termination()
        bed.assert_agreement()

    def test_commit_needs_majority(self):
        """With a majority of followers crashed, nothing commits."""
        bed = make_bed(num_nodes=5)
        bed.feed_requests(0, 8)
        bed.crash(3)
        bed.crash(4)
        bed.crash(2)
        bed.start([0, 1])
        bed.run(until=10.0)
        assert bed.delivered[0] == {}


class TestLeaderFailure:
    def test_election_fills_remaining_with_nil(self):
        bed = make_bed()
        bed.feed_requests(0, 16)
        bed.crash(0)
        bed.start([1, 2])
        bed.run(until=60.0)
        bed.assert_termination([1, 2])
        bed.assert_agreement()
        for node in (1, 2):
            assert all(is_nil(v) for v in bed.delivered[node].values())
        assert any(bed.instances[n].role == LEADER for n in (1, 2))

    def test_mid_segment_crash_keeps_committed_prefix(self):
        bed = make_bed(seq_nrs=(0, 1, 2, 3, 4, 5))
        bed.feed_requests(0, 24)
        bed.start_all()
        bed.run(until=1.0)
        committed_before = dict(bed.delivered[1])
        bed.crash(0)
        bed.run(until=60.0)
        bed.assert_termination([1, 2])
        bed.assert_agreement()
        for sn, value in committed_before.items():
            entry = bed.delivered[1][sn]
            if not is_nil(value):
                assert not is_nil(entry) and entry.digest() == value.digest()

    def test_new_leader_has_higher_term(self):
        bed = make_bed()
        bed.crash(0)
        bed.start([1, 2])
        bed.run(until=60.0)
        new_leaders = [bed.instances[n] for n in (1, 2) if bed.instances[n].role == LEADER]
        assert new_leaders and all(inst.term >= 1 for inst in new_leaders)

    def test_no_quorum_split_commits_after_heal(self):
        # 2|2 from the start: the segment leader replicates every sn to its
        # one partner at term 0 but never reaches a majority of 3.  After
        # heal, the re-elected leader of a later term already holds every
        # sn, so only its blank entry can commit the term-0 entries.
        bed = make_bed(num_nodes=4)
        bed.feed_requests(0, 16)
        bed.network.partition([[0, 1], [2, 3]])
        bed.start_all()
        bed.run(until=8.0)
        assert all(delivered == {} for delivered in bed.delivered.values())
        bed.network.heal_partition()
        bed.run(until=120.0)
        bed.assert_termination()
        bed.assert_agreement()
        leader = next(inst for inst in bed.instances if inst.role == LEADER)
        assert leader.term > 0
        assert leader.log[-1] == RaftEntry(term=leader.term, sn=NOOP_SN, value=NIL)
        assert any(not is_nil(value) for value in bed.delivered[2].values())

    def test_blank_entry_is_accepted_only_as_nil(self):
        bed = make_bed()
        follower = bed.instances[1]
        assert follower._validate_entry(RaftEntry(term=1, sn=NOOP_SN, value=NIL))
        batch = Batch.of(())
        assert not follower._validate_entry(RaftEntry(term=1, sn=NOOP_SN, value=batch))

    def test_only_the_segment_leaders_term_carries_batches(self):
        """A batch is valid only at term 0, the segment leader's: a failover
        leader relays the batches it holds, but cannot introduce one."""
        bed = make_bed()
        follower = bed.instances[1]
        sn = follower.segment.seq_nrs[0]
        batch = Batch.of(())
        assert follower._validate_entry(RaftEntry(term=0, sn=sn, value=batch))
        assert not follower._validate_entry(RaftEntry(term=1, sn=sn, value=batch))
        assert follower._validate_entry(RaftEntry(term=1, sn=sn, value=NIL))

    def test_reelected_segment_leader_proposes_no_more_batches(self):
        """The segment leader steps down with sequence numbers still to
        propose and wins a later term: its pacer keeps firing, but no batch
        leaves term 0, so followers never reject its appends."""
        bed = make_bed(seq_nrs=tuple(range(8)))
        rejections = []
        send = bed.network.send

        def counting_send(src, dst, message):
            if isinstance(message, AppendReply) and not message.success:
                rejections.append((src, dst))
            send(src, dst, message)

        bed.network.send = counting_send
        bed.start_all()
        bed.run(until=0.5)
        leader = bed.instances[0]
        assert leader._remaining_sns()
        leader.handle_message(1, AppendReply(term=1, success=False, match_index=-1))
        assert leader.role == FOLLOWER
        leader._on_election_timeout()
        bed.run(until=10.0)
        assert leader.role == LEADER and leader.term == 2
        bed.assert_termination()
        bed.assert_agreement()
        assert all(entry.term == 0 or is_nil(entry.value) for entry in leader.log)
        assert len(rejections) <= 2

    def test_election_timeout_range_doubles_on_failed_election(self):
        bed = make_bed(num_nodes=5)
        # Crash enough nodes that elections cannot succeed.
        bed.crash(0)
        bed.crash(3)
        bed.crash(4)
        bed.start([1, 2])
        bed.run(until=30.0)
        low, high = bed.instances[1]._election_range
        assert low > 2.0 and high > 4.0


# No TestFollowerValidation twin of the PBFT/HotStuff case: Raft is CFT, so a
# leader whose batches correct followers reject is outside its fault model —
# and such followers never terminate, because the leader's heartbeats keep
# resetting their election timers.
class TestLogReplication:
    def test_followers_catch_up_after_short_disconnect(self):
        bed = make_bed()
        bed.feed_requests(0, 16)
        bed.start_all()
        # Partition node 2 away briefly; Raft's retransmission catches it up.
        bed.network.partition([[0, 1], [2]])
        bed.run(until=1.0)
        bed.network.heal_partition()
        bed.run(until=20.0)
        bed.assert_termination()
        bed.assert_agreement()

    def test_leader_retransmits_until_acknowledged(self):
        bed = make_bed()
        bed.feed_requests(0, 8)
        bed.start_all()
        bed.run(until=10.0)
        # Heartbeats plus per-follower retransmissions: message count well
        # above the minimum one-append-per-entry.
        assert bed.network.stats.messages_sent > 3 * len(bed.segment.seq_nrs)
