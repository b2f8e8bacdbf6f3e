"""Request validation and client watermarks (Section 3.7).

A request is valid iff (1) its signature verifies, (2) its client identifier
belongs to the known client set, and (3) its timestamp falls within the
client's current watermark window.  Watermark windows bound how many requests
a client can have in flight, which in turn bounds how much a malicious client
can bias the request-to-bucket distribution; ISS advances the windows at
epoch transitions.

The watermark tracker is also a node's one record of which requests it has
committed (:meth:`ClientWatermarks.committed`): a timestamp below the
client's contiguous committed prefix, or in its out-of-order set, which the
window bounds.  Duplicate refusal, batch validation and resurrection all ask
it, so no per-request filter grows with a client's history.

The validator keeps no cache of its own: signature checks are memoized once,
in :meth:`repro.crypto.signatures.KeyStore.verify_digest`, until the request
commits and the watermark tracker answers for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set

from ..crypto.signatures import KeyStore
from .types import ClientId, Request

#: Rejection reasons tracked per client (see :class:`ValidationStats`).
REJECT_BAD_SIGNATURE = "bad_signature"
REJECT_UNKNOWN_CLIENT = "unknown_client"
REJECT_OUTSIDE_WATERMARKS = "outside_watermarks"

REJECTION_REASONS = (
    REJECT_BAD_SIGNATURE,
    REJECT_UNKNOWN_CLIENT,
    REJECT_OUTSIDE_WATERMARKS,
)


def request_signing_payload(request: Request) -> bytes:
    """Bytes covered by the client signature: the identifier and the payload."""
    return (
        request.rid.client.to_bytes(8, "little", signed=False)
        + request.rid.timestamp.to_bytes(8, "little", signed=False)
        + request.payload
    )


def sign_request(key_store: KeyStore, request: Request) -> Request:
    """Return a copy of ``request`` signed with its client's key."""
    signature = key_store.sign(request.rid.client, request_signing_payload(request))
    return Request(rid=request.rid, payload=request.payload, signature=signature)


class ClientWatermarks:
    """Per-client watermark windows.

    A client may only use timestamps in ``[low, low + window)``, i.e. it may
    have at most ``window`` requests in flight.  The low watermark advances
    at epoch transitions (Section 3.7) to the end of the client's
    *contiguously delivered* timestamp prefix: everything below ``low`` has
    been delivered, so sliding the window there never invalidates an
    in-flight request while still bounding how far ahead a client can run.

    Memory stays bounded even against abusive gap-leaving clients: the
    out-of-order buffer of one client can never exceed its window (the
    window itself rejects anything further out), per-client sets are
    dropped the moment the prefix catches up, and
    :meth:`advance_epoch` prunes anything a replayed delivery could have
    left below the advanced watermark.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("watermark window must be >= 1")
        self.window = window
        self._low: Dict[ClientId, int] = {}
        #: Next timestamp still missing from the contiguous delivered prefix.
        self._prefix: Dict[ClientId, int] = {}
        #: Delivered timestamps above the prefix (pruned as the prefix grows;
        #: entries exist only for clients that currently have a gap).
        self._out_of_order: Dict[ClientId, set] = {}

    def low_watermark(self, client: ClientId) -> int:
        return self._low.get(client, 0)

    def in_window(self, client: ClientId, timestamp: int) -> bool:
        low = self._low.get(client, 0)
        return low <= timestamp < low + self.window

    def committed(self, client: ClientId, timestamp: int) -> bool:
        """Whether this node has committed ``(client, timestamp)``."""
        return timestamp < self._prefix.get(client, 0) or timestamp in self._out_of_order.get(
            client, ()
        )

    def note_delivered(self, client: ClientId, timestamp: int) -> None:
        """Record a committed request (called on every SB-DELIVER, state
        transfer and recovery replay)."""
        prefix = self._prefix.get(client, 0)
        if timestamp < prefix:
            return
        if timestamp == prefix:
            # Common case (clients use contiguous timestamps): advance the
            # prefix straight through any buffered out-of-order deliveries
            # without ever materialising a set for purely in-order clients.
            prefix += 1
            pending = self._out_of_order.get(client)
            if pending:
                while prefix in pending:
                    pending.discard(prefix)
                    prefix += 1
                if not pending:
                    # The prefix caught up: keep no empty set behind for
                    # clients that go quiet.
                    del self._out_of_order[client]
            self._prefix[client] = prefix
            return
        pending = self._out_of_order.get(client)
        if pending is None:
            pending = self._out_of_order[client] = set()
        pending.add(timestamp)

    def advance_epoch(self) -> None:
        """Advance every client's window at an epoch transition."""
        for client, prefix in self._prefix.items():
            if prefix <= self._low.get(client, 0):
                continue
            self._low[client] = prefix
            # Defensive prune: deliveries replayed out of order (recovery,
            # state transfer) must never strand timestamps at or below the
            # advanced watermark in the out-of-order buffer.
            pending = self._out_of_order.get(client)
            if pending:
                stale = [ts for ts in pending if ts < prefix]
                for ts in stale:
                    pending.discard(ts)
                if not pending:
                    del self._out_of_order[client]

    # ------------------------------------------------------------ inspection
    def out_of_order_entries(self) -> int:
        """Total buffered out-of-order timestamps across all clients (the
        node-memory figure abusive gap-leavers try to inflate)."""
        return sum(len(pending) for pending in self._out_of_order.values())

    def tracked_gap_clients(self) -> int:
        """Number of clients currently holding an out-of-order buffer."""
        return len(self._out_of_order)


@dataclass
class ValidationStats:
    """Counts of accepted / rejected requests, per rejection reason.

    ``by_client`` attributes every rejection to the client identity the
    request *claims* (for forged signatures that is the impersonated victim
    — the only identity a node can observe); it is only touched on
    rejection, so honest-path validation stays counter increments.
    """

    accepted: int = 0
    bad_signature: int = 0
    unknown_client: int = 0
    outside_watermarks: int = 0
    #: Rejections per claimed client identity, per reason.
    by_client: Dict[ClientId, Dict[str, int]] = field(default_factory=dict)

    @property
    def rejected(self) -> int:
        return self.bad_signature + self.unknown_client + self.outside_watermarks

    def note_rejection(self, client: ClientId, reason: str) -> None:
        """Attribute one rejection of ``reason`` to ``client``."""
        per = self.by_client.get(client)
        if per is None:
            per = self.by_client[client] = dict.fromkeys(REJECTION_REASONS, 0)
        per[reason] += 1


class RequestValidator:
    """Implements the three-part validity check of Section 3.7."""

    def __init__(
        self,
        key_store: KeyStore,
        known_clients: Iterable[ClientId],
        watermarks: ClientWatermarks,
        verify_signatures: bool = True,
    ):
        self.key_store = key_store
        self.known_clients: Set[ClientId] = set(known_clients)
        self.watermarks = watermarks
        self.verify_signatures = verify_signatures
        self.stats = ValidationStats()

    def add_client(self, client: ClientId) -> None:
        self.known_clients.add(client)

    def is_valid(self, request: Request) -> bool:
        """Full validity check; updates :attr:`stats` with the outcome."""
        rid = request.rid
        if rid.client not in self.known_clients:
            self.stats.unknown_client += 1
            self.stats.note_rejection(rid.client, REJECT_UNKNOWN_CLIENT)
            return False
        if not self.watermarks.in_window(rid.client, rid.timestamp):
            self.stats.outside_watermarks += 1
            self.stats.note_rejection(rid.client, REJECT_OUTSIDE_WATERMARKS)
            return False
        # The key store's memo is shared: only the first validator pays the HMAC.
        if self.verify_signatures and not self.key_store.verify_digest(
            rid.client,
            request.digest(),
            request.signature,
            lambda: request_signing_payload(request),
        ):
            self.stats.bad_signature += 1
            self.stats.note_rejection(rid.client, REJECT_BAD_SIGNATURE)
            return False
        self.stats.accepted += 1
        return True
