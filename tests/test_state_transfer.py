"""Unit tests for state transfer (catching up from a stable checkpoint)."""

import pytest

from repro.core.checkpoint import CheckpointProtocol
from repro.core.config import ISSConfig
from repro.core.log import Log
from repro.core.membership import MembershipTracker
from repro.core.state_transfer import StateRequest, StateResponse, StateTransfer
from repro.core.types import NIL
from repro.crypto.signatures import KeyStore
from tests.conftest import make_batch, make_request


class Harness:
    """Two nodes with checkpoint + state-transfer machinery wired directly."""

    def __init__(self, epoch_length=4, num_nodes=4):
        self.config = ISSConfig(num_nodes=num_nodes, epoch_length=epoch_length, batch_rate=None)
        self.key_store = KeyStore(deployment_seed=6)
        self.sent = []
        self.logs = {n: Log() for n in range(num_nodes)}
        self.checkpoints = {}
        self.transfers = {}
        for node in range(num_nodes):
            self.checkpoints[node] = CheckpointProtocol(
                node_id=node,
                config=self.config,
                key_store=self.key_store,
                broadcast_fn=lambda msg: None,
                on_stable=lambda epoch, cert: None,
                membership=MembershipTracker(self.config, None),
            )
            self.transfers[node] = StateTransfer(
                node_id=node,
                config=self.config,
                checkpoints=self.checkpoints[node],
                send_fn=lambda dst, msg, node=node: self.sent.append((node, dst, msg)),
                apply_entry_fn=lambda sn, entry, epoch, node=node: self.logs[node].commit(
                    sn, entry, epoch, now=0.0
                ),
            )

    def fill_epoch(self, node, epoch=0):
        for sn in range(epoch * self.config.epoch_length, (epoch + 1) * self.config.epoch_length):
            self.logs[node].commit(sn, make_batch(make_request(timestamp=sn)), epoch=epoch, now=0.0)

    def make_stable(self, epoch=0, source_node=0):
        """Give every node a stable certificate for ``epoch`` built from node 0's log."""
        for node in range(self.config.num_nodes):
            self.checkpoints[node]._announced_local.discard(epoch)
        messages = []
        for node in range(self.config.num_nodes):
            proto = self.checkpoints[node]
            proto.local_epoch_complete(epoch, self.logs[source_node])
        # Exchange: every protocol already recorded its own; deliver the rest.
        for node in range(self.config.num_nodes):
            for other in range(self.config.num_nodes):
                if other == node:
                    continue
                from repro.core.checkpoint import CheckpointMsg, checkpoint_signing_payload, epoch_log_root

                root = epoch_log_root(self.logs[source_node], epoch, self.config.epoch_length)
                last_sn = (epoch + 1) * self.config.epoch_length - 1
                payload = checkpoint_signing_payload(epoch, last_sn, root)
                self.checkpoints[node].handle_message(
                    other,
                    CheckpointMsg(
                        epoch=epoch, last_sn=last_sn, log_root=root, sender=other,
                        signature=self.key_store.sign(other, payload),
                    ),
                )


class TestStateTransfer:
    def test_request_and_apply_roundtrip(self):
        harness = Harness()
        harness.fill_epoch(0)
        harness.fill_epoch(1)  # node 1 is behind with an empty log
        harness.make_stable(0)
        harness.transfers[1].request_missing(0, 0, peers=[0])
        assert harness.sent, "a StateRequest should have been sent"
        _, dst, request = harness.sent[-1]
        assert dst == 0 and isinstance(request, StateRequest)
        responses = harness.transfers[0].build_responses(request, harness.logs[0])
        assert len(responses) == 1
        assert harness.transfers[1].handle_response(responses[0], harness.logs[1])
        assert harness.logs[1].is_complete(range(4))
        assert harness.transfers[1].transfers_completed == 1

    def test_response_without_stable_checkpoint_not_built(self):
        harness = Harness()
        harness.fill_epoch(0)
        request = StateRequest(first_epoch=0, last_epoch=0)
        assert harness.transfers[0].build_responses(request, harness.logs[0]) == []

    def test_tampered_entries_rejected(self):
        harness = Harness()
        harness.fill_epoch(0)
        harness.make_stable(0)
        request = StateRequest(first_epoch=0, last_epoch=0)
        response = harness.transfers[0].build_responses(request, harness.logs[0])[0]
        tampered = StateResponse(
            epoch=0,
            entries=tuple((sn, NIL) for sn, _ in response.entries),
            certificate=response.certificate,
        )
        harness.transfers[1].request_missing(0, 0, peers=[0])
        assert not harness.transfers[1].handle_response(tampered, harness.logs[1])
        assert not harness.logs[1].has_entry(0)

    def test_bad_certificate_rejected(self):
        harness = Harness()
        harness.fill_epoch(0)
        harness.make_stable(0)
        request = StateRequest(first_epoch=0, last_epoch=0)
        response = harness.transfers[0].build_responses(request, harness.logs[0])[0]
        from dataclasses import replace

        broken_cert = replace(response.certificate, signatures=response.certificate.signatures[:1])
        bad = StateResponse(epoch=0, entries=response.entries, certificate=broken_cert)
        assert not harness.transfers[1].handle_response(bad, harness.logs[1])

    def test_wrong_sequence_numbers_rejected(self):
        harness = Harness()
        harness.fill_epoch(0)
        harness.make_stable(0)
        request = StateRequest(first_epoch=0, last_epoch=0)
        response = harness.transfers[0].build_responses(request, harness.logs[0])[0]
        shifted = StateResponse(
            epoch=0,
            entries=tuple((sn + 1, entry) for sn, entry in response.entries),
            certificate=response.certificate,
        )
        assert not harness.transfers[1].handle_response(shifted, harness.logs[1])

    def test_duplicate_request_not_resent(self):
        harness = Harness()
        harness.transfers[1].request_missing(0, 0, peers=[0])
        sent_before = len(harness.sent)
        harness.transfers[1].request_missing(0, 0, peers=[0])
        assert len(harness.sent) == sent_before

    def test_already_complete_epoch_is_accepted_without_reapply(self):
        harness = Harness()
        harness.fill_epoch(0)
        harness.fill_epoch(0 if False else 1)
        harness.make_stable(0)
        request = StateRequest(first_epoch=0, last_epoch=0)
        response = harness.transfers[0].build_responses(request, harness.logs[0])[0]
        # Node 0 already holds the epoch: handling its own response is a no-op success.
        assert harness.transfers[0].handle_response(response, harness.logs[0])


class TestStateTransferEdgeCases:
    """Adversarial and partial-failure paths of the transfer protocol."""

    def test_forged_signature_certificate_rejected(self):
        """A certificate whose signatures do not verify must be discarded."""
        from dataclasses import replace

        harness = Harness()
        harness.fill_epoch(0)
        harness.make_stable(0)
        request = StateRequest(first_epoch=0, last_epoch=0)
        response = harness.transfers[0].build_responses(request, harness.logs[0])[0]
        signatures = response.certificate.signatures
        forged_cert = replace(
            response.certificate,
            signatures=((signatures[0][0], b"forged"),) + signatures[1:],
        )
        forged = StateResponse(epoch=0, entries=response.entries, certificate=forged_cert)
        harness.transfers[1].request_missing(0, 0, peers=[0])
        assert not harness.transfers[1].handle_response(forged, harness.logs[1])
        assert not harness.logs[1].has_entry(0)

    def test_duplicate_signer_padding_rejected(self):
        """2f+1 signature *slots* filled by repeating one signer is no quorum."""
        from dataclasses import replace

        harness = Harness()
        harness.fill_epoch(0)
        harness.make_stable(0)
        request = StateRequest(first_epoch=0, last_epoch=0)
        response = harness.transfers[0].build_responses(request, harness.logs[0])[0]
        node, signature = response.certificate.signatures[0]
        padded_cert = replace(
            response.certificate,
            signatures=tuple((node, signature) for _ in response.certificate.signatures),
        )
        padded = StateResponse(epoch=0, entries=response.entries, certificate=padded_cert)
        harness.transfers[1].request_missing(0, 0, peers=[0])
        assert not harness.transfers[1].handle_response(padded, harness.logs[1])

    def test_certificate_from_wrong_epoch_rejected(self):
        """A valid certificate attached to another epoch's entries fails the
        Merkle-root binding even though its signatures verify."""
        harness = Harness()
        harness.fill_epoch(0, epoch=0)
        harness.fill_epoch(0, epoch=1)
        harness.make_stable(0)
        harness.make_stable(1)
        entries_0 = harness.transfers[0].build_responses(
            StateRequest(first_epoch=0, last_epoch=0), harness.logs[0]
        )[0].entries
        cert_1 = harness.checkpoints[0].stable_checkpoint(1)
        mismatched = StateResponse(epoch=0, entries=entries_0, certificate=cert_1)
        harness.transfers[1].request_missing(0, 0, peers=[0])
        assert not harness.transfers[1].handle_response(mismatched, harness.logs[1])
        assert not harness.logs[1].has_entry(0)

    def test_partial_range_response_covers_only_stable_epochs(self):
        """A responder answers the stable subset of a range and stays silent
        about the rest — the requester keeps those epochs in flight."""
        harness = Harness()
        harness.fill_epoch(0, epoch=0)
        harness.fill_epoch(0, epoch=1)
        harness.fill_epoch(0, epoch=2)
        harness.make_stable(0)  # epochs 1 and 2 complete but not stable
        request = StateRequest(first_epoch=0, last_epoch=2)
        responses = harness.transfers[0].build_responses(request, harness.logs[0])
        assert [r.epoch for r in responses] == [0]
        harness.transfers[1].request_missing(0, 2, peers=[0])
        assert harness.transfers[1].handle_response(responses[0], harness.logs[1])
        assert harness.logs[1].is_complete(range(0, 4))
        assert not harness.logs[1].has_entry(4)
        # Epochs 1-2 stay marked in flight (awaiting the silent responder), so
        # an overlapping re-request skips them; only epoch 0 — completed and
        # no longer in flight — is re-covered, and answering it again is an
        # idempotent no-op.  ``force=True`` is the recovery path's way past
        # the in-flight markers when the responder is presumed dead.
        assert harness.transfers[1]._in_flight == {1, 2}
        harness.sent.clear()
        harness.transfers[1].request_missing(0, 2, peers=[0])
        _, _, follow_up = harness.sent[-1]
        assert (follow_up.first_epoch, follow_up.last_epoch) == (0, 0)
        harness.sent.clear()
        harness.transfers[1].request_missing(0, 2, peers=[0], force=True)
        _, _, forced = harness.sent[-1]
        assert (forced.first_epoch, forced.last_epoch) == (0, 2)

    def test_overlapping_requests_deduplicate_in_flight_epochs(self):
        harness = Harness()
        harness.transfers[1].request_missing(0, 1, peers=[0])
        harness.sent.clear()
        harness.transfers[1].request_missing(1, 2, peers=[0])
        _, _, request = harness.sent[-1]
        # Epoch 1 is already in flight; only epoch 2 is re-requested.
        assert (request.first_epoch, request.last_epoch) == (2, 2)

    def test_force_rerequests_in_flight_epochs(self):
        """The recovery path re-asks even in-flight epochs (the original
        responder may have crashed mid-transfer)."""
        harness = Harness()
        harness.transfers[1].request_missing(0, 0, peers=[0])
        harness.sent.clear()
        harness.transfers[1].request_missing(0, 0, peers=[0])
        assert not harness.sent  # deduplicated
        harness.transfers[1].request_missing(0, 0, peers=[0], force=True)
        assert harness.sent  # forced past the in-flight marker

    def test_open_ended_probe_substitutes_latest_stable(self):
        from repro.core.state_transfer import LATEST_STABLE

        harness = Harness()
        harness.fill_epoch(0, epoch=0)
        harness.fill_epoch(0, epoch=1)
        harness.make_stable(0)
        harness.make_stable(1)
        probe = StateRequest(first_epoch=0, last_epoch=LATEST_STABLE)
        responses = harness.transfers[0].build_responses(probe, harness.logs[0])
        assert [r.epoch for r in responses] == [0, 1]

    def test_open_ended_probe_with_nothing_stable_is_silent(self):
        from repro.core.state_transfer import LATEST_STABLE

        harness = Harness()
        harness.fill_epoch(0)  # complete locally but no stable checkpoint
        probe = StateRequest(first_epoch=0, last_epoch=LATEST_STABLE)
        assert harness.transfers[0].build_responses(probe, harness.logs[0]) == []

    def test_responder_crash_mid_transfer_covered_by_redundant_peer(self):
        """Peer A dies after shipping epoch 0 of [0, 1]; peer B's responses
        complete the transfer without any special-casing."""
        harness = Harness()
        harness.fill_epoch(0, epoch=0)
        harness.fill_epoch(0, epoch=1)
        harness.fill_epoch(2, epoch=0)
        harness.fill_epoch(2, epoch=1)
        harness.make_stable(0)
        harness.make_stable(1)
        request = StateRequest(first_epoch=0, last_epoch=1)
        from_a = harness.transfers[0].build_responses(request, harness.logs[0])
        from_b = harness.transfers[2].build_responses(request, harness.logs[2])
        harness.transfers[1].request_missing(0, 1, peers=[0, 2])
        # Peer A crashes mid-transfer: only its epoch-0 response arrives.
        assert harness.transfers[1].handle_response(from_a[0], harness.logs[1])
        assert not harness.logs[1].has_entry(4)
        # Peer B's full response set fills the rest; the duplicate epoch 0 is
        # an idempotent no-op.
        for response in from_b:
            assert harness.transfers[1].handle_response(response, harness.logs[1])
        assert harness.logs[1].is_complete(range(0, 8))
        assert harness.transfers[1].entries_applied == 8

    def test_transfer_counters_track_bytes_and_probes(self):
        harness = Harness()
        harness.fill_epoch(0)
        harness.make_stable(0)
        transfer = harness.transfers[1]
        transfer.request_latest(0, peers=[0])
        assert transfer.probes_sent == 1
        response = harness.transfers[0].build_responses(
            StateRequest(first_epoch=0, last_epoch=0), harness.logs[0]
        )[0]
        transfer.request_missing(0, 0, peers=[0])
        assert transfer.handle_response(response, harness.logs[1])
        assert transfer.bytes_received == response.wire_size()
        assert transfer.entries_applied == harness.config.epoch_length


class FakeTimer:
    """Scheduler stub: remembers its callback and whether it was cancelled."""

    def __init__(self, delay, callback):
        self.delay = delay
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def fire(self):
        if not self.cancelled:
            self.callback()


class StaggerHarness(Harness):
    """Harness whose requester (node 1) gets a capturing fake scheduler."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.timers = []

        def schedule(delay, callback):
            timer = FakeTimer(delay, callback)
            self.timers.append(timer)
            return timer

        self.transfers[1] = StateTransfer(
            node_id=1,
            config=self.config,
            checkpoints=self.checkpoints[1],
            send_fn=lambda dst, msg: self.sent.append((1, dst, msg)),
            apply_entry_fn=lambda sn, entry, epoch: self.logs[1].commit(
                sn, entry, epoch, now=0.0
            ),
            schedule_fn=schedule,
            probe_stagger=2.0,
        )


class TestStaggeredEscalation:
    """The duplicate-response trim: staggered, narrowing, never-cancelled."""

    def test_ranged_request_asks_one_peer_and_schedules_the_rest(self):
        harness = StaggerHarness()
        harness.transfers[1].request_missing(0, 1, peers=[0, 2, 3])
        # Exactly one immediate request...
        assert [(src, dst) for src, dst, _ in harness.sent] == [(1, 0)]
        # ...one escalation timer per remaining peer plus the expiry timer.
        assert [t.delay for t in harness.timers] == [2.0, 4.0, 6.0]

    def test_escalation_fires_when_nothing_arrived(self):
        harness = StaggerHarness()
        harness.transfers[1].request_missing(0, 1, peers=[0, 2, 3])
        harness.sent.clear()
        harness.timers[0].fire()  # first peer never answered
        assert [(src, dst) for src, dst, _ in harness.sent] == [(1, 2)]
        assert harness.transfers[1].probe_escalations == 1

    def test_escalation_narrows_to_contiguous_missing_runs(self):
        """Epoch 1 of [0, 2] already applied: the escalation ships two
        requests ([0,0] and [2,2]) instead of re-spanning the gap."""
        harness = StaggerHarness(epoch_length=2)
        harness.transfers[1].request_missing(0, 2, peers=[0, 2])
        harness.transfers[1]._in_flight.discard(1)  # epoch 1 arrived meanwhile
        harness.sent.clear()
        harness.timers[0].fire()
        requests = [msg for _src, _dst, msg in harness.sent]
        assert [(r.first_epoch, r.last_epoch) for r in requests] == [(0, 0), (2, 2)]

    def test_escalation_noops_once_everything_applied(self):
        harness = StaggerHarness()
        harness.transfers[1].request_missing(0, 0, peers=[0, 2])
        harness.transfers[1]._in_flight.discard(0)
        harness.sent.clear()
        harness.timers[0].fire()
        assert harness.sent == []
        assert harness.transfers[1].probe_escalations == 0

    def test_open_ended_escalation_rebases_past_local_stable(self):
        """A lagging first responder must not cap recovery: the next peer
        is asked for everything past what was already obtained."""
        harness = StaggerHarness()
        harness.fill_epoch(1, epoch=0)
        harness.make_stable(0, source_node=1)  # epoch 0 now locally stable
        harness.transfers[1].request_latest(0, peers=[0, 2, 3])
        harness.sent.clear()
        harness.timers[0].fire()
        (_src, dst, request), = harness.sent
        assert dst == 2
        assert (request.first_epoch, request.last_epoch) == (1, -1)

    def test_expiry_releases_in_flight_for_future_triggers(self):
        """A chain of dead responders cannot wedge catch-up: after the last
        peer was asked the reservation expires and a later trigger retries."""
        harness = StaggerHarness()
        transfer = harness.transfers[1]
        transfer.request_missing(0, 1, peers=[0, 2])
        assert 0 in transfer._in_flight and 1 in transfer._in_flight
        for timer in list(harness.timers):
            timer.fire()  # escalation to peer 2, then expiry — nobody answered
        assert 0 not in transfer._in_flight and 1 not in transfer._in_flight
        harness.sent.clear()
        transfer.request_missing(0, 1, peers=[0, 2])  # next trigger retries
        assert len(harness.sent) == 1

    def test_stop_cancels_outstanding_timers(self):
        harness = StaggerHarness()
        harness.transfers[1].request_missing(0, 1, peers=[0, 2, 3])
        harness.transfers[1].stop()
        assert all(timer.cancelled for timer in harness.timers)
