"""A static deployment is the one-view case of dynamic membership.

Every replica runs its membership tracker, so quorum sizes come from one
rule (:class:`~repro.core.membership.MembershipView`) and the admissible
signer set of every checkpoint is the epoch's view, with or without a
scheduled reconfiguration:

* a 6-node cluster split 3|3 keeps one log — two halves of 3 are not two
  quorums (the ``2f+1 = 3`` rule let each half order its own batches) —
  and, given time after the heal, orders every request;
* a static node refuses a checkpoint certificate signed by non-members and
  never counts a non-member's CHECKPOINT vote.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import CheckpointMsg, checkpoint_signing_payload
from repro.core.types import CheckpointCertificate
from repro.harness import scenarios
from repro.harness.invariants import delivered_trace, traces_agree
from repro.runtime.faults import symmetric_split
from tests.test_iss_node_unit import NodeHarness

#: Ids no 4-node deployment has.
OUTSIDERS = (10, 11, 12)


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff", "raft"])
def test_split_six_nodes_keeps_one_log(protocol):
    """3|3 for 7 s, then heal: every replica's delivered trace lies on one
    order.  PBFT and HotStuff forked under ``2f+1``; Raft's majority rule
    was always right and is the control."""
    dep = scenarios.deployment(
        protocol,
        6,
        [symmetric_split(range(3), range(3, 6), 1.0, 8.0)],
        rate=100,
        duration=10,
        drain_time=8,
        seed=3,
    )
    result = dep.run()
    assert traces_agree([delivered_trace(node) for node in result.nodes])


@pytest.mark.parametrize(
    "protocol",
    [
        "pbft",
        pytest.param(
            "hotstuff",
            marks=pytest.mark.xfail(
                strict=True,
                reason="FOUND (CHANGES.md): ISS-HotStuff at n = 6 does not "
                "recover from a 3|3 split",
            ),
        ),
        "raft",
    ],
)
def test_split_six_nodes_recovers(protocol):
    """3|3 for 7 s, then heal, in a 58 s run: every replica completes at
    least 5 epochs and ends with no request pending.  Raft used to wedge
    here with 0 epochs: followers refused the segment leader's batch that
    a failover leader relayed, because the sender was not the segment
    leader."""
    dep = scenarios.deployment(
        protocol,
        6,
        [symmetric_split(range(3), range(3, 6), 1.0, 8.0)],
        rate=100,
        duration=58,
        drain_time=8,
        seed=3,
    )
    result = dep.run()
    figures = {
        node.node_id: (node.epochs_completed, node.pending_requests())
        for node in result.nodes
    }
    assert all(
        epochs >= 5 and pending == 0 for epochs, pending in figures.values()
    ), figures


def _signed_vote(key_store, sender: int, epoch: int = 0) -> CheckpointMsg:
    root = b"\x11" * 32
    payload = checkpoint_signing_payload(epoch, 7, root)
    return CheckpointMsg(
        epoch=epoch,
        last_sn=7,
        log_root=root,
        sender=sender,
        signature=key_store.sign(sender, payload),
    )


@pytest.mark.parametrize("epoch", [0, 5])
def test_static_node_refuses_a_non_member_certificate(epoch):
    harness = NodeHarness()
    votes = [_signed_vote(harness.key_store, node, epoch) for node in OUTSIDERS]
    certificate = CheckpointCertificate(
        epoch=epoch,
        last_sn=7,
        log_root=votes[0].log_root,
        signatures=tuple((vote.sender, vote.signature) for vote in votes),
    )
    assert not harness.node.checkpoints.verify_certificate(certificate)
    members = [_signed_vote(harness.key_store, node, epoch) for node in (1, 2, 3)]
    assert harness.node.checkpoints.verify_certificate(
        CheckpointCertificate(
            epoch=epoch,
            last_sn=7,
            log_root=members[0].log_root,
            signatures=tuple((vote.sender, vote.signature) for vote in members),
        )
    )


def test_static_node_ignores_non_member_checkpoint_votes():
    harness = NodeHarness()
    harness.node.start()
    for sender in OUTSIDERS:
        harness.node.on_message(sender, _signed_vote(harness.key_store, sender))
    assert harness.node.checkpoints.stable_checkpoint(0) is None
