"""Malicious SMR clients — the end-user half of the adversary suite.

The paper's Section 3.7 defences (client watermark windows, request
signatures, payload-excluded bucket hashing) exist to contain *abusive
clients*, not faulty replicas — yet the replica-side adversary suite never
attacks them.  This module supplies the attacker: an
:class:`AbusiveClient` subclass of :class:`~repro.core.client.Client`
driven by a :class:`~repro.runtime.faults.MaliciousClientSpec`, mirroring how
:mod:`repro.sim.adversary` supplies the replica-side behaviours for
:class:`~repro.runtime.faults.ByzantineSpec`.

Four behaviours, one per defence:

* **watermark abuse** — timestamps far beyond the window (every node must
  reject them) alternated with deliberately skipped timestamps, so the
  contiguous-prefix low watermark never advances; the window turns the
  attack on the attacker, which wedges itself after at most ``window``
  in-flight requests while correct clients are untouched.
* **duplicate flooding** — every request sent ``flood_factor`` times to
  every node, plus re-submissions of already-delivered requests; bucket
  queue idempotence and the delivered filter absorb the flood without a
  single double delivery.
* **bucket bias** — request ids crafted (by skipping timestamps) to all
  map to one target bucket.  Because the bucket hash covers only
  ``c || t`` (payload excluded) the *only* lever is the timestamp, and
  skipping timestamps leaves watermark gaps — so the bias is bounded by
  the window and then self-wedges, which is exactly the defence the
  scenarios measure.
* **forged signatures** — requests claiming another client's identity,
  signed with the abuser's own key; every node's signature check must
  reject them (attributed to the claimed identity, the only one a node
  can observe).

Design constraints, mirrored from the replica-side adversaries:

* **No real forgery.**  The simulated PKI is sound — only the key store
  can sign for an identity, and the abusive client only holds its own key,
  so its "stolen" signatures are exactly as unverifiable as a real
  attacker's would be.
* **Deterministic.**  All behaviours are pure functions of the submission
  counter, so seeded runs replay bit-identically (the client-abuse gate
  gate pins a golden trace on this).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.client import Client
from ..core.messages import ClientRequestMsg
from ..core.types import Request, RequestId
from ..core.validation import request_signing_payload, sign_request
from ..runtime.faults import (
    CLIENT_BUCKET_BIAS,
    CLIENT_DUPLICATE_FLOOD,
    CLIENT_WATERMARK_ABUSE,
    MaliciousClientSpec,
)

#: Delivered requests the duplicate flooder remembers for re-submission.
REDELIVER_HISTORY = 64


def bias_capacity(
    client: int, target_bucket: int, window: int, num_buckets: int
) -> int:
    """Most requests a bucket-bias abuser can ever get accepted.

    The abuser skips every timestamp not mapping to the target bucket, so
    its contiguous prefix — and with it the low watermark — can advance at
    most to the first skipped timestamp; every accepted id therefore lies
    in ``[0, first_gap + window)``, and only the timestamps in that range
    that actually map to the target count.  Scenario and test assertions
    use this exact figure (≈ ``window / num_buckets``) rather than the
    floor approximation, which undercounts for unlucky hash residues.
    """
    target = target_bucket % num_buckets
    first_gap = 0
    while RequestId(client, first_gap)._mix % num_buckets == target:
        first_gap += 1
    return sum(
        1
        for timestamp in range(first_gap + window)
        if RequestId(client, timestamp)._mix % num_buckets == target
    )


class AbusiveClient(Client):
    """A client process that attacks the Section 3.7 defences.

    Until :meth:`activate_abuse` fires (the spec's ``start_time``, armed by
    :meth:`~repro.sim.faults.FaultInjector.register_abusive_client`) the
    client behaves exactly like its honest base class; afterwards every
    :meth:`submit` call mounts the spec'd attack instead.  The workload
    generator keeps pacing submissions through the normal open-loop arrival
    process — only *what* is submitted changes.
    """

    def __init__(self, spec: MaliciousClientSpec, **kwargs):
        super().__init__(**kwargs)
        if spec.client != self.client_id:
            raise ValueError(
                f"spec targets client {spec.client}, built for {self.client_id}"
            )
        self.spec = spec
        self._abuse_active = False
        #: Monotone attack-step counter (sole source of variation, so seeded
        #: runs replay identically).
        self._abuse_step = 0
        #: Descending forged-timestamp cursor (see :meth:`_submit_forged`).
        self._forged_step = 0
        #: Recently completed requests, re-submitted by the duplicate flooder.
        self._delivered_history: List[Request] = []
        # --- attack counters (surfaced via :meth:`abuse_stats`) -------------
        #: Submissions with timestamps no node may accept.
        self.out_of_window_sent = 0
        #: Timestamps deliberately skipped (permanent watermark gaps).
        self.gaps_left = 0
        #: Extra request transmissions beyond the protocol's single send
        #: fan-out (flood copies and delivered re-submissions, per node).
        self.duplicates_sent = 0
        #: Requests submitted under a stolen identity.
        self.forged_sent = 0
        #: Requests with ids crafted to hit the target bucket.
        self.biased_sent = 0

    # ------------------------------------------------------------ activation
    def activate_abuse(self) -> None:
        """Switch from honest to abusive behaviour (idempotent)."""
        self._abuse_active = True

    @property
    def abuse_active(self) -> bool:
        return self._abuse_active

    # ------------------------------------------------------------ submission
    def outstanding_within_watermarks(self) -> bool:
        """An abusive client ignores the client-side watermark gate — that
        gate is a *courtesy* of correct clients, and disrespecting it is the
        attack.  The node-side window is the defence under test."""
        if not self._abuse_active:
            return super().outstanding_within_watermarks()
        return True

    def submit(self, payload: bytes) -> Request:
        """Mount one attack step (honest submission before activation)."""
        if not self._abuse_active:
            return super().submit(payload)
        behaviour = self.spec.behaviour
        self._abuse_step += 1
        if behaviour == CLIENT_WATERMARK_ABUSE:
            return self._submit_watermark_abuse(payload)
        if behaviour == CLIENT_DUPLICATE_FLOOD:
            return self._submit_duplicate_flood(payload)
        if behaviour == CLIENT_BUCKET_BIAS:
            return self._submit_bucket_bias(payload)
        return self._submit_forged(payload)

    # ------------------------------------------------------------ behaviours
    def _submit_watermark_abuse(self, payload: bytes) -> Request:
        """Alternate far-beyond-window timestamps with gap-leaving ones."""
        if self._abuse_step % 2:
            # Far beyond any reachable window: low + window <= ts always.
            timestamp = (
                self._lowest_uncompleted
                + self.config.client_watermark_window
                + self.spec.jump
                + self._abuse_step
            )
            self.out_of_window_sent += 1
            return self._send_crafted(timestamp, payload)
        # Skip one timestamp forever: the contiguous delivered prefix — and
        # with it the low watermark — can never advance past the gap.
        self._next_timestamp += 1
        self.gaps_left += 1
        timestamp = self._next_timestamp
        self._next_timestamp += 1
        return self._send_crafted(timestamp, payload)

    def _submit_duplicate_flood(self, payload: bytes) -> Request:
        """Submit validly, but ``flood_factor`` times to every node — and
        re-submit an already-delivered request on top."""
        timestamp = self._next_timestamp
        self._next_timestamp += 1
        request = self._send_crafted(timestamp, payload, fan_out=self.spec.flood_factor)
        self.duplicates_sent += (self.spec.flood_factor - 1) * self.config.num_nodes
        if self._delivered_history:
            delivered = self._delivered_history[
                self._abuse_step % len(self._delivered_history)
            ]
            self._broadcast_request(delivered, copies=1)
            self.duplicates_sent += self.config.num_nodes
        return request

    def _submit_bucket_bias(self, payload: bytes) -> Request:
        """Craft the next id mapping to the target bucket (skipping others).

        The bucket hash covers only ``c || t``, so the crafted *payload*
        below is pure theatre — the only real lever is skipping timestamps,
        and every skip is a watermark gap that brings the abuser closer to
        wedging itself out of the window.
        """
        target = self.spec.target_bucket % self.config.num_buckets
        num_buckets = self.config.num_buckets
        timestamp = self._next_timestamp
        while RequestId(self.client_id, timestamp)._mix % num_buckets != target:
            timestamp += 1
        self.gaps_left += timestamp - self._next_timestamp
        self._next_timestamp = timestamp + 1
        self.biased_sent += 1
        crafted = bytes((target & 0xFF,)) * len(payload)
        return self._send_crafted(timestamp, crafted)

    def _submit_forged(self, payload: bytes) -> Request:
        """Claim the victim's identity, signing with the abuser's own key.

        Timestamps descend from the top of the victim's initial window so
        they stay *inside* the window (the rejection under test must be the
        signature check, not the watermark) without colliding with the
        victim's own low, ascending timestamps.
        """
        window = self.config.client_watermark_window
        timestamp = window - 1 - (self._forged_step % window)
        self._forged_step += 1
        rid = RequestId(client=self.spec.victim, timestamp=timestamp)
        request = Request(rid=rid, payload=payload)
        if self.sign_requests:
            signature = self.key_store.sign(
                self.client_id, request_signing_payload(request)
            )
            request = Request(rid=rid, payload=payload, signature=signature)
        self._track_pending(request)
        self._broadcast_request(request, copies=1)
        self.forged_sent += 1
        return request

    # -------------------------------------------------------------- plumbing
    def _send_crafted(
        self, timestamp: int, payload: bytes, fan_out: int = 1
    ) -> Request:
        """Build, sign, track and broadcast a request with a crafted
        timestamp; ``fan_out`` > 1 floods extra copies to every node."""
        rid = RequestId(client=self.client_id, timestamp=timestamp)
        request = Request(rid=rid, payload=payload)
        if self.sign_requests:
            request = sign_request(self.key_store, request)
        self._track_pending(request)
        self._broadcast_request(request, copies=fan_out)
        return request

    def _broadcast_request(self, request: Request, copies: int) -> None:
        """Send ``copies`` of ``request`` to every node — abusive clients do
        not honour leader targeting either."""
        message = ClientRequestMsg(request=request)
        for _ in range(copies):
            for node in range(self.config.num_nodes):
                self.network.send(self.endpoint, node, message)

    def _on_request_completed(self, request: Request) -> None:
        """Remember delivered requests so the flooder can re-submit them."""
        if self.spec.behaviour != CLIENT_DUPLICATE_FLOOD:
            return
        self._delivered_history.append(request)
        if len(self._delivered_history) > REDELIVER_HISTORY:
            del self._delivered_history[0]

    # ------------------------------------------------------------- reporting
    def abuse_stats(self) -> Dict[str, object]:
        """Attack counters of this client (the ``abusers`` entries of
        ``scenarios.row``'s client-abuse section)."""
        return {
            "behaviour": self.spec.behaviour,
            "activated": self._abuse_active,
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "out_of_window_sent": self.out_of_window_sent,
            "gaps_left": self.gaps_left,
            "duplicates_sent": self.duplicates_sent,
            "forged_sent": self.forged_sent,
            "biased_sent": self.biased_sent,
        }
