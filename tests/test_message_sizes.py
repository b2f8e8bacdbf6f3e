"""Wire-size sanity tests for every protocol message type.

The bandwidth model is what drives the reproduction's headline result, so the
sizes fed into it must be sane: payload-carrying messages must scale with the
payload they carry, votes and acknowledgements must stay small and constant,
and nothing may report a non-positive size.
"""

import pytest

from repro.baselines.mirbft import NewEpochMsg
from repro.core.checkpoint import CheckpointMsg
from repro.core.messages import (
    BucketAssignmentMsg,
    ClientRequestMsg,
    ClientResponseBatchMsg,
    ClientResponseMsg,
    InstanceMessage,
)
from repro.core.state_transfer import StateRequest, StateResponse
from repro.core.types import Batch, CheckpointCertificate, NIL
from repro.crypto.signatures import KeyStore
from repro.crypto.threshold import ThresholdScheme
from repro.hotstuff.messages import Block, GENESIS_QC, NewRound, Proposal, QuorumCertificate, Vote
from repro.pbft.messages import Commit, NewView, Prepare, PrePrepare, PreparedProof, ViewChange
from repro.raft.messages import AppendEntries, AppendReply, RaftEntry, RequestVote, VoteReply
from repro.sim.network import wire_size
from tests.conftest import make_batch, make_request


def big_batch(requests=32, payload=500):
    return make_batch(*(make_request(timestamp=i, payload=b"x" * payload) for i in range(requests)))


def small_batch():
    return make_batch(make_request(payload=b"x"))


class TestPayloadProportionality:
    def test_pbft_preprepare_scales_with_batch(self):
        big = PrePrepare(view=0, sn=0, value=big_batch(), digest=b"d" * 32)
        small = PrePrepare(view=0, sn=0, value=small_batch(), digest=b"d" * 32)
        assert big.wire_size() > small.wire_size()
        assert big.wire_size() >= big_batch().size_bytes()

    def test_pbft_votes_are_small_and_constant(self):
        prepare = Prepare(view=0, sn=0, digest=b"d" * 32)
        commit = Commit(view=0, sn=0, digest=b"d" * 32)
        assert prepare.wire_size() < 200
        assert commit.wire_size() < 200

    def test_pbft_new_view_carries_preprepares(self):
        preprepares = tuple(
            PrePrepare(view=1, sn=sn, value=NIL, digest=NIL.digest()) for sn in range(4)
        )
        message = NewView(new_view=1, preprepares=preprepares)
        assert message.wire_size() >= sum(p.wire_size() for p in preprepares)

    def test_hotstuff_proposal_scales_with_batch(self):
        block_big = Block(view=0, round=0, sn=0, value=big_batch(), parent_digest=GENESIS_QC.block_digest, justify=GENESIS_QC)
        block_small = Block(view=0, round=0, sn=0, value=small_batch(), parent_digest=GENESIS_QC.block_digest, justify=GENESIS_QC)
        assert Proposal(block=block_big).wire_size() > Proposal(block=block_small).wire_size()

    def test_hotstuff_vote_small(self):
        ks = KeyStore()
        scheme = ThresholdScheme(ks, range(4), 3)
        partial = scheme.sign_share(0, b"d" * 32)
        vote = Vote(view=0, block_digest=b"d" * 32, partial=partial)
        assert vote.wire_size() < 250

    def test_raft_append_entries_scales_with_entries(self):
        entries = tuple(RaftEntry(term=0, sn=i, value=big_batch()) for i in range(3))
        heavy = AppendEntries(term=0, prev_index=-1, prev_term=0, entries=entries, leader_commit=-1)
        heartbeat = AppendEntries(term=0, prev_index=-1, prev_term=0, entries=(), leader_commit=-1)
        assert heavy.wire_size() > 3 * big_batch().size_bytes()
        assert heartbeat.wire_size() < 200

    def test_state_response_scales_with_entries(self):
        cert = CheckpointCertificate(epoch=0, last_sn=3, log_root=b"r" * 32, signatures=((0, b"s" * 64),))
        heavy = StateResponse(epoch=0, entries=tuple((sn, big_batch()) for sn in range(4)), certificate=cert)
        light = StateResponse(epoch=0, entries=tuple((sn, NIL) for sn in range(4)), certificate=cert)
        assert heavy.wire_size() > light.wire_size()


class TestAllMessagesHavePositiveSize:
    @pytest.mark.parametrize(
        "message",
        [
            PrePrepare(view=0, sn=0, value=NIL, digest=b"d"),
            Prepare(view=0, sn=0, digest=b"d"),
            Commit(view=0, sn=0, digest=b"d"),
            ViewChange(new_view=1, prepared=()),
            PreparedProof(view=0, sn=0, digest=b"d", value=NIL),
            NewView(new_view=1, preprepares=()),
            NewRound(round=1, high_qc=GENESIS_QC),
            QuorumCertificate(view=0, block_digest=b"d", signature=None),
            AppendReply(term=0, success=True, match_index=3),
            RequestVote(term=1, last_log_index=0, last_log_term=0),
            VoteReply(term=1, granted=True),
            AppendEntries(term=0, prev_index=-1, prev_term=0, entries=(), leader_commit=-1),
            Proposal(block=Block(view=0, round=0, sn=0, value=NIL, parent_digest=GENESIS_QC.block_digest, justify=GENESIS_QC)),
            ClientRequestMsg(request=make_request()),
            InstanceMessage(instance_id=(0, 1), payload=Prepare(view=0, sn=0, digest=b"d")),
            CheckpointMsg(epoch=0, last_sn=7, log_root=b"r" * 32, sender=0, signature=b"s" * 64),
            StateRequest(first_epoch=0, last_epoch=2),
            NewEpochMsg(epoch=1, primary=1),
            ClientResponseMsg(rid=make_request().rid, sn=1, node=0),
            ClientResponseBatchMsg(client=0, entries=((make_request().rid, 1),), node=0),
            BucketAssignmentMsg(epoch=0, assignment=((0, 1),)),
        ],
    )
    def test_positive_wire_size(self, message):
        assert wire_size(message) > 0

    def test_instance_envelope_adds_overhead(self):
        inner = Prepare(view=0, sn=0, digest=b"d")
        wrapped = InstanceMessage(instance_id=(0, 1), payload=inner)
        assert wrapped.wire_size() > inner.wire_size()

    def test_response_batch_scales_with_entries(self):
        rids = [make_request(timestamp=t).rid for t in range(8)]
        big = ClientResponseBatchMsg(client=0, entries=tuple((r, i) for i, r in enumerate(rids)), node=0)
        small = ClientResponseBatchMsg(client=0, entries=((rids[0], 0),), node=0)
        assert big.wire_size() > small.wire_size()
        # Aggregation must beat the per-request form for whole batches.
        assert big.wire_size() < len(rids) * ClientResponseMsg(rid=rids[0], sn=0, node=0).wire_size()

    def test_client_request_includes_signature(self):
        from repro.core.validation import sign_request

        ks = KeyStore()
        signed = sign_request(ks, make_request(payload=b"p" * 100))
        unsigned = make_request(payload=b"p" * 100)
        assert ClientRequestMsg(request=signed).wire_size() > ClientRequestMsg(request=unsigned).wire_size()
