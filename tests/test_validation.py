"""Unit tests for request validation and client watermarks (Section 3.7)."""

import pytest

from repro.core.validation import (
    ClientWatermarks,
    RequestValidator,
    request_signing_payload,
    sign_request,
)
from repro.crypto.signatures import KeyStore
from repro.core.types import Request, RequestId
from tests.conftest import make_request


class TestClientWatermarks:
    def test_initial_window(self):
        marks = ClientWatermarks(window=4)
        assert marks.in_window(0, 0)
        assert marks.in_window(0, 3)
        assert not marks.in_window(0, 4)

    def test_window_advances_over_contiguous_prefix(self):
        marks = ClientWatermarks(window=4)
        for ts in range(3):
            marks.note_delivered(0, ts)
        marks.advance_epoch()
        assert marks.low_watermark(0) == 3
        assert marks.in_window(0, 6)
        assert not marks.in_window(0, 7)
        assert not marks.in_window(0, 2)

    def test_gap_blocks_advancement(self):
        marks = ClientWatermarks(window=4)
        marks.note_delivered(0, 0)
        marks.note_delivered(0, 2)  # 1 missing
        marks.advance_epoch()
        assert marks.low_watermark(0) == 1

    def test_out_of_order_delivery_eventually_advances(self):
        marks = ClientWatermarks(window=8)
        for ts in (2, 0, 1, 3):
            marks.note_delivered(0, ts)
        marks.advance_epoch()
        assert marks.low_watermark(0) == 4

    def test_no_advance_before_epoch_transition(self):
        marks = ClientWatermarks(window=4)
        marks.note_delivered(0, 0)
        assert marks.low_watermark(0) == 0

    def test_per_client_isolation(self):
        marks = ClientWatermarks(window=4)
        marks.note_delivered(0, 0)
        marks.advance_epoch()
        assert marks.low_watermark(0) == 1
        assert marks.low_watermark(1) == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ClientWatermarks(0)

    def test_window_boundaries_exact(self):
        """Timestamps at low + window - 1 (last in) and low + window (first
        out), both before and after the watermark advances."""
        marks = ClientWatermarks(window=4)
        assert marks.in_window(0, 3)  # low=0: 0 + 4 - 1
        assert not marks.in_window(0, 4)  # low=0: 0 + 4
        for ts in range(3):
            marks.note_delivered(0, ts)
        marks.advance_epoch()
        assert marks.low_watermark(0) == 3
        assert marks.in_window(0, 3 + 4 - 1)
        assert not marks.in_window(0, 3 + 4)
        assert not marks.in_window(0, 2)  # below low is out too

    def test_advance_epoch_reports_moved_windows(self):
        """advance_epoch returns (client, old_low, new_low) for every window
        that moved — the ranges driving per-client state GC."""
        marks = ClientWatermarks(window=8)
        for ts in range(3):
            marks.note_delivered(0, ts)
        marks.note_delivered(1, 1)  # gapped: prefix stays 0
        assert marks.advance_epoch() == [(0, 0, 3)]
        # Nothing moved since: an empty report, no spurious re-advancement.
        assert marks.advance_epoch() == []
        marks.note_delivered(0, 3)
        assert marks.advance_epoch() == [(0, 3, 4)]

    def test_advance_epoch_with_gapped_prefix(self):
        """A gap pins the watermark at the gap even when far newer
        timestamps keep being delivered (the abusive gap-leaver shape)."""
        marks = ClientWatermarks(window=16)
        for ts in (1, 3, 5, 7, 9):  # 0 never delivered
            marks.note_delivered(0, ts)
        assert marks.advance_epoch() == []
        assert marks.low_watermark(0) == 0
        marks.note_delivered(0, 0)  # the gap fills: prefix jumps over 1
        assert marks.advance_epoch() == [(0, 0, 2)]

    def test_out_of_order_sets_dropped_when_prefix_catches_up(self):
        """No empty per-client sets are retained — quiet clients cost no
        memory once their prefix caught up."""
        marks = ClientWatermarks(window=8)
        for ts in (2, 1):
            marks.note_delivered(0, ts)
        assert marks.tracked_gap_clients() == 1
        assert marks.out_of_order_entries() == 2
        marks.note_delivered(0, 0)  # catches up through 1 and 2
        assert marks.tracked_gap_clients() == 0
        assert marks.out_of_order_entries() == 0
        assert marks.low_watermark(0) == 0  # low moves at epochs only
        assert marks.advance_epoch() == [(0, 0, 3)]

    def test_in_order_clients_never_allocate_buffers(self):
        marks = ClientWatermarks(window=8)
        for ts in range(5):
            marks.note_delivered(0, ts)
        assert marks.tracked_gap_clients() == 0

    def test_duplicate_and_stale_deliveries_ignored(self):
        marks = ClientWatermarks(window=8)
        marks.note_delivered(0, 0)
        marks.note_delivered(0, 0)  # duplicate of the prefix head
        marks.note_delivered(0, 0)  # and again, after the prefix advanced
        assert marks.low_watermark(0) == 0
        marks.advance_epoch()
        assert marks.low_watermark(0) == 1
        assert marks.tracked_gap_clients() == 0


class TestRequestValidator:
    def make_validator(self, window=16, verify=True, clients=(0, 1, 2)):
        key_store = KeyStore(deployment_seed=4)
        marks = ClientWatermarks(window=window)
        return key_store, RequestValidator(key_store, clients, marks, verify_signatures=verify)

    def test_valid_signed_request_accepted(self):
        key_store, validator = self.make_validator()
        request = sign_request(key_store, make_request(client=1, timestamp=0))
        assert validator.is_valid(request)
        assert validator.stats.accepted == 1

    def test_unknown_client_rejected(self):
        key_store, validator = self.make_validator()
        request = sign_request(key_store, make_request(client=9, timestamp=0))
        assert not validator.is_valid(request)
        assert validator.stats.unknown_client == 1

    def test_bad_signature_rejected(self):
        key_store, validator = self.make_validator()
        request = make_request(client=1, timestamp=0)  # unsigned
        assert not validator.is_valid(request)
        assert validator.stats.bad_signature == 1

    def test_forged_signature_rejected(self):
        key_store, validator = self.make_validator()
        honest = sign_request(key_store, make_request(client=1, timestamp=0))
        forged = Request(rid=RequestId(2, 0), payload=honest.payload, signature=honest.signature)
        assert not validator.is_valid(forged)

    def test_outside_watermarks_rejected(self):
        key_store, validator = self.make_validator(window=4)
        request = sign_request(key_store, make_request(client=1, timestamp=10))
        assert not validator.is_valid(request)
        assert validator.stats.outside_watermarks == 1

    def test_signature_verification_can_be_disabled(self):
        _, validator = self.make_validator(verify=False)
        assert validator.is_valid(make_request(client=1, timestamp=0))

    def test_add_client(self):
        key_store, validator = self.make_validator()
        request = sign_request(key_store, make_request(client=7, timestamp=0))
        assert not validator.is_valid(request)
        validator.add_client(7)
        assert validator.is_valid(request)

    def test_rejected_counter_totals(self):
        key_store, validator = self.make_validator(window=2)
        validator.is_valid(make_request(client=9))
        validator.is_valid(sign_request(key_store, make_request(client=1, timestamp=5)))
        validator.is_valid(make_request(client=1, timestamp=0))
        assert validator.stats.rejected == 3

    def test_per_client_rejection_counters(self):
        """Rejections are attributed to the claimed client identity; the
        honest accept path never touches the per-client map."""
        key_store, validator = self.make_validator(window=2)
        validator.is_valid(make_request(client=9))  # unknown
        validator.is_valid(sign_request(key_store, make_request(client=1, timestamp=5)))
        validator.is_valid(make_request(client=1, timestamp=0))  # unsigned
        validator.is_valid(sign_request(key_store, make_request(client=2, timestamp=0)))
        by_client = validator.stats.by_client
        assert by_client[9]["unknown_client"] == 1
        assert by_client[1]["outside_watermarks"] == 1
        assert by_client[1]["bad_signature"] == 1
        assert 2 not in by_client  # accepted requests leave no entry

    def test_cache_does_not_shortcut_a_different_payload(self):
        """A reused request id with different payload/signature must be
        re-verified, not served from the memo of the first request."""
        key_store, validator = self.make_validator()
        good = sign_request(key_store, make_request(client=1, timestamp=0, payload=b"x"))
        assert validator.is_valid(good)
        twin = Request(rid=good.rid, payload=b"y", signature=good.signature)
        assert not validator.is_valid(twin)
        assert validator.stats.bad_signature == 1
        # The good request still validates from cache afterwards.
        assert validator.is_valid(good)

    def test_signing_payload_covers_identity_and_payload(self):
        a = request_signing_payload(make_request(client=1, timestamp=2, payload=b"x"))
        b = request_signing_payload(make_request(client=1, timestamp=2, payload=b"y"))
        c = request_signing_payload(make_request(client=1, timestamp=3, payload=b"x"))
        assert a != b and a != c
