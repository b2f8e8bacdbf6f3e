"""Unit tests for the checkpointing sub-protocol (Section 3.5)."""

import pytest

from repro.core.checkpoint import (
    CheckpointMsg,
    CheckpointProtocol,
    checkpoint_signing_payload,
    epoch_log_root,
)
from repro.core.config import ISSConfig
from repro.core.log import Log
from repro.core.membership import MembershipTracker
from repro.core.types import NIL
from repro.crypto.signatures import KeyStore
from tests.conftest import make_batch, make_request


def make_complete_log(epoch_length=4):
    log = Log()
    for sn in range(epoch_length):
        log.commit(sn, make_batch(make_request(timestamp=sn)), epoch=0, now=0.0)
    return log


class Harness:
    """A set of checkpoint protocol instances wired directly together."""

    def __init__(self, num_nodes=4, epoch_length=4):
        self.config = ISSConfig(num_nodes=num_nodes, epoch_length=epoch_length, batch_rate=None)
        self.key_store = KeyStore(deployment_seed=5)
        self.stable = {n: {} for n in range(num_nodes)}
        self.protocols = {}
        self.outbox = []
        for node in range(num_nodes):
            self.protocols[node] = CheckpointProtocol(
                node_id=node,
                config=self.config,
                key_store=self.key_store,
                broadcast_fn=lambda msg, node=node: self.outbox.append((node, msg)),
                on_stable=lambda epoch, cert, node=node: self.stable[node].__setitem__(epoch, cert),
                membership=MembershipTracker(self.config, None),
            )

    def flush(self):
        pending, self.outbox = self.outbox, []
        for sender, message in pending:
            for node, protocol in self.protocols.items():
                if node != sender:
                    protocol.handle_message(sender, message)


class TestEpochLogRoot:
    def test_root_depends_on_entries(self):
        config_len = 4
        log_a = make_complete_log(config_len)
        log_b = Log()
        for sn in range(config_len):
            log_b.commit(sn, NIL, epoch=0, now=0.0)
        assert epoch_log_root(log_a, 0, config_len) != epoch_log_root(log_b, 0, config_len)

    def test_root_deterministic(self):
        assert epoch_log_root(make_complete_log(), 0, 4) == epoch_log_root(make_complete_log(), 0, 4)


class TestCheckpointProtocol:
    def test_quorum_creates_stable_checkpoint(self):
        harness = Harness()
        log = make_complete_log()
        for node, protocol in harness.protocols.items():
            protocol.local_epoch_complete(0, log)
        harness.flush()
        for node in range(4):
            assert 0 in harness.stable[node]
            cert = harness.stable[node][0]
            assert len(cert.signatures) >= harness.config.strong_quorum
            assert cert.last_sn == 3

    def test_no_stable_checkpoint_below_quorum(self):
        harness = Harness()
        log = make_complete_log()
        # Only one node announces: nobody reaches 2f+1 = 3.
        harness.protocols[0].local_epoch_complete(0, log)
        harness.flush()
        assert all(0 not in harness.stable[n] for n in range(4))

    def test_local_epoch_complete_is_idempotent(self):
        harness = Harness()
        log = make_complete_log()
        harness.protocols[0].local_epoch_complete(0, log)
        harness.protocols[0].local_epoch_complete(0, log)
        assert len(harness.outbox) == 1

    def test_bad_signature_ignored(self):
        harness = Harness()
        log = make_complete_log()
        root = epoch_log_root(log, 0, 4)
        forged = CheckpointMsg(epoch=0, last_sn=3, log_root=root, sender=1, signature=b"x" * 64)
        harness.protocols[0].handle_message(1, forged)
        assert harness.protocols[0].stable_checkpoint(0) is None

    def test_sender_mismatch_ignored(self):
        harness = Harness()
        log = make_complete_log()
        payload = checkpoint_signing_payload(0, 3, epoch_log_root(log, 0, 4))
        message = CheckpointMsg(
            epoch=0, last_sn=3, log_root=epoch_log_root(log, 0, 4),
            sender=2, signature=harness.key_store.sign(2, payload),
        )
        harness.protocols[0].handle_message(1, message)  # claimed sender 2, channel says 1
        assert harness.protocols[0].stable_checkpoint(0) is None

    def test_mismatching_roots_do_not_combine(self):
        harness = Harness()
        log = make_complete_log()
        other_log = Log()
        for sn in range(4):
            other_log.commit(sn, NIL, epoch=0, now=0.0)
        harness.protocols[0].local_epoch_complete(0, log)
        harness.protocols[1].local_epoch_complete(0, other_log)
        harness.protocols[2].local_epoch_complete(0, other_log)
        harness.flush()
        # 2 matching + 1 different: nobody has a 3-quorum on a single root.
        assert all(0 not in harness.stable[n] for n in range(4))

    def test_certificate_verification(self):
        harness = Harness()
        log = make_complete_log()
        for protocol in harness.protocols.values():
            protocol.local_epoch_complete(0, log)
        harness.flush()
        cert = harness.stable[0][0]
        assert harness.protocols[1].verify_certificate(cert)
        # Tampered certificate fails.
        from dataclasses import replace
        bad = replace(cert, last_sn=99) if hasattr(cert, "__dataclass_fields__") else cert
        assert not harness.protocols[1].verify_certificate(bad)

    def test_latest_stable_epoch(self):
        harness = Harness()
        log = make_complete_log()
        assert harness.protocols[0].latest_stable_epoch() is None
        for protocol in harness.protocols.values():
            protocol.local_epoch_complete(0, log)
        harness.flush()
        assert harness.protocols[0].latest_stable_epoch() == 0
