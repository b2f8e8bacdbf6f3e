"""SMR clients (Section 4.3).

A client signs each request, targets it at the node currently leading the
bucket the request maps to (plus the nodes projected to lead that bucket in
the next two epochs), and considers the request delivered once it has
collected ``f+1`` matching responses.  On every epoch transition — learned
through quorum-confirmed bucket-assignment messages from the nodes — the
client re-submits all still-undelivered requests to the new leaders, which
guarantees that a correct leader eventually receives every request
(liveness, SMR4).

Epoch-driven resubmission alone cannot recover a request whose messages
were *dropped* (lossy link, partition) while the bucket assignment stays
put, so clients run a retry loop when ``ISSConfig.client_retry_timeout`` is
positive: each request arms a per-request timeout; on expiry the request is
resent to the current targets and the timeout backs off by
:data:`~repro.core.config.CLIENT_RETRY_BACKOFF` (seeded
:data:`~repro.core.config.CLIENT_RETRY_JITTER`, capped at
``client_retry_max_timeout``).  Resubmissions reuse the original request
id, so they stay inside the client's watermark window by construction and
are absorbed by the nodes' idempotent bucket queues when the original did
make it through.  A client with ``client_retry_timeout = 0`` schedules no
retries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..crypto.signatures import KeyStore
from ..runtime.api import Scheduler, Timer, Transport
from .buckets import assignment_for_epoch, bucket_of
from .config import CLIENT_RETRY_BACKOFF, CLIENT_RETRY_JITTER, ISSConfig
from .messages import (
    BucketAssignmentMsg,
    ClientRequestMsg,
    ClientResponseBatchMsg,
    ClientResponseMsg,
    client_endpoint,
)
from .types import BucketId, ClientId, EpochNr, NodeId, Request, RequestId
from .validation import sign_request

#: Callback fired when the client has collected f+1 responses for a request:
#: ``fn(client_id, request, submit_time, completion_time)``.
CompletionListener = Callable[[ClientId, Request, float, float], None]
#: ``(request id, submit time)``, once per request :meth:`Client.submit` sends.
SubmitListener = Callable[[RequestId, float], None]


@dataclass
class _PendingRequest:
    request: Request
    submitted_at: float
    responders: Set[NodeId] = field(default_factory=set)
    completed: bool = False


class Client:
    """One client process submitting requests to the ISS deployment."""

    def __init__(
        self,
        client_id: ClientId,
        config: ISSConfig,
        sim: Scheduler,
        network: Transport,
        key_store: KeyStore,
        on_complete: Optional[CompletionListener] = None,
        on_submit: Optional[SubmitListener] = None,
        sign_requests: Optional[bool] = None,
        tracer=None,
        first_timestamp: int = 0,
    ):
        self.client_id = client_id
        self.config = config
        self.sim = sim
        self.network = network
        self.key_store = key_store
        self.on_complete = on_complete
        self.on_submit = on_submit
        #: Observability hook (``repro.obs.RequestTracer``); ``None`` keeps
        #: every instrumentation site a single attribute test.
        self.tracer = tracer
        self.sign_requests = (
            config.client_signatures if sign_requests is None else sign_requests
        )
        self.endpoint = client_endpoint(client_id)
        #: f+1 replies: at least one comes from a correct replica.
        self.ack_quorum = config.weak_quorum
        #: ``first_timestamp`` lets a re-launched client (live CLI) resume
        #: after its own delivered prefix instead of reusing timestamps the
        #: node-side watermarks have already passed; it must equal the
        #: client's contiguous completed count or the window gate misfires.
        self._next_timestamp = first_timestamp
        self._pending: Dict[RequestId, _PendingRequest] = {}
        #: Lowest timestamp not yet completed — the client-side mirror of the
        #: node-side low watermark, which is anchored at the *contiguous*
        #: delivered prefix.  Gating submission on this (rather than the
        #: pending count) keeps every emitted timestamp inside the node-side
        #: window even when completions land out of order.
        self._lowest_uncompleted = first_timestamp
        #: Completed timestamps above :attr:`_lowest_uncompleted` (the
        #: out-of-order completion buffer; drained as the prefix advances).
        self._completed_ahead: Set[int] = set()
        #: Latest quorum-confirmed bucket assignment and its epoch.
        self._assignment_epoch: Optional[EpochNr] = None
        self._assignment: Dict[BucketId, NodeId] = {}
        #: Votes for not-yet-confirmed assignments: epoch -> assignment -> nodes.
        self._assignment_votes: Dict[Tuple[EpochNr, Tuple], Set[NodeId]] = {}
        #: Leaderset implied by the confirmed assignment (for projections).
        self._known_leaders: List[NodeId] = []
        #: Cached bucket→leader projections for future epochs.
        self._projections: Dict[EpochNr, Dict[BucketId, NodeId]] = {}
        self.requests_submitted = 0
        self.requests_completed = 0
        #: Resubmissions performed by the retry loop (0 with retries off).
        self.requests_retried = 0
        #: Per-request retry timers (empty with retries off).
        self._retry_timers: Dict[RequestId, Timer] = {}
        #: Deterministic per-client jitter source, created only when retries
        #: are enabled so a retry-free run draws no extra randomness.
        self._retry_rng: Optional[random.Random] = None
        if config.client_retry_timeout > 0:
            self._retry_rng = random.Random(
                (config.random_seed * 1_000_003) ^ (0xC11E47 + client_id * 7919)
            )
        network.register(self.endpoint, self.on_message)

    # ------------------------------------------------------------ submission
    def submit(self, payload: bytes) -> Request:
        """Create, sign and send a new request; returns the request object."""
        rid = RequestId(client=self.client_id, timestamp=self._next_timestamp)
        self._next_timestamp += 1
        request = Request(rid=rid, payload=payload)
        if self.sign_requests:
            request = sign_request(self.key_store, request)
        self._track_pending(request)
        if self.tracer is not None:
            self.tracer.on_submit(self.sim.now, self.client_id, rid)
        self._send_request(request)
        if self._retry_rng is not None:
            self._arm_retry(rid, attempt=0)
        return request

    def _track_pending(self, request: Request) -> None:
        """Register a submitted request as pending and report it to
        ``on_submit`` (misbehaving subclasses call this for the requests
        they craft outside :meth:`submit`)."""
        self._pending[request.rid] = _PendingRequest(
            request=request, submitted_at=self.sim.now
        )
        self.requests_submitted += 1
        if self.on_submit is not None:
            self.on_submit(request.rid, self.sim.now)

    def _send_request(self, request: Request) -> None:
        targets = self._targets_for(request.rid)
        message = ClientRequestMsg(request=request)
        for node in targets:
            self.network.send(self.endpoint, node, message)

    # ----------------------------------------------------------- retry loop
    def _arm_retry(self, rid: RequestId, attempt: int) -> None:
        """Schedule the next per-request timeout (jittered exponential
        backoff, capped at ``client_retry_max_timeout``)."""
        delay = self._retry_delay(attempt)
        self._retry_timers[rid] = self.sim.schedule(
            delay, lambda: self._on_retry_timeout(rid, attempt)
        )

    def _retry_delay(self, attempt: int) -> float:
        config = self.config
        delay = min(
            config.client_retry_max_timeout,
            config.client_retry_timeout * (CLIENT_RETRY_BACKOFF ** attempt),
        )
        return delay * (1.0 + CLIENT_RETRY_JITTER * self._retry_rng.random())

    def _on_retry_timeout(self, rid: RequestId, attempt: int) -> None:
        """The request outlived its timeout: resend it and back off.

        Resending reuses the original request id, so the resubmission is
        inside the watermark window by construction (the window gates
        *new* timestamps) and idempotent at the nodes if the original
        arrived after all.  The loop runs until the request completes —
        the backoff cap bounds the resend rate, not the attempt count
        (giving up would abandon SMR liveness for that request).
        """
        pending = self._pending.get(rid)
        if pending is None or pending.completed:
            self._retry_timers.pop(rid, None)
            return
        self.requests_retried += 1
        if self.tracer is not None:
            self.tracer.on_retry(self.sim.now, self.client_id, rid, attempt + 1)
        self._send_request(pending.request)
        self._arm_retry(rid, attempt + 1)

    def _cancel_retry(self, rid: RequestId) -> None:
        timer = self._retry_timers.pop(rid, None)
        if timer is not None:
            timer.cancel()

    def _targets_for(self, rid: RequestId) -> List[NodeId]:
        """Current leader of the request's bucket plus the two projected next
        leaders (Section 4.3); all nodes when no assignment is known yet."""
        if self._assignment_epoch is None or not self._known_leaders:
            return list(range(self.config.num_nodes))
        bucket = bucket_of(rid, self.config.num_buckets)
        targets: List[NodeId] = []
        current = self._assignment.get(bucket)
        if current is not None:
            targets.append(current)
        for offset in (1, 2):
            projected = self._project_leader(bucket, self._assignment_epoch + offset)
            if projected is not None and projected not in targets:
                targets.append(projected)
        return targets or list(range(self.config.num_nodes))

    def _project_leader(self, bucket: BucketId, epoch: EpochNr) -> Optional[NodeId]:
        """Project the bucket's leader in a future epoch, assuming the
        leaderset stays what the last confirmed assignment implied."""
        if not self._known_leaders:
            return None
        projection = self._projections.get(epoch)
        if projection is None:
            assignment = assignment_for_epoch(
                epoch, self._known_leaders, self.config.num_nodes, self.config.num_buckets
            )
            projection = {
                b: leader for leader, buckets in assignment.items() for b in buckets
            }
            self._projections[epoch] = projection
        return projection.get(bucket)

    # -------------------------------------------------------------- messages
    def on_message(self, src: NodeId, message: object) -> None:
        if isinstance(message, ClientResponseBatchMsg):
            # Aggregated acknowledgements: each entry counts exactly as an
            # individually received response for its request.
            for rid, _sn in message.entries:
                self._note_response(src, rid)
        elif isinstance(message, ClientResponseMsg):
            self._note_response(src, message.rid)
        elif isinstance(message, BucketAssignmentMsg):
            self._on_assignment(src, message)

    def _note_response(self, src: NodeId, rid: RequestId) -> None:
        pending = self._pending.get(rid)
        if pending is None or pending.completed:
            return
        pending.responders.add(src)
        if len(pending.responders) >= self.ack_quorum:
            pending.completed = True
            self.requests_completed += 1
            if self.tracer is not None:
                self.tracer.on_quorum(self.sim.now, self.client_id, rid)
            self._note_completed(rid.timestamp)
            if self.on_complete is not None:
                self.on_complete(
                    self.client_id, pending.request, pending.submitted_at, self.sim.now
                )
            del self._pending[rid]
            if self._retry_timers:
                self._cancel_retry(rid)
            self._on_request_completed(pending.request)

    def _note_completed(self, timestamp: int) -> None:
        """Advance the contiguous-completion prefix over ``timestamp``."""
        self._completed_ahead.add(timestamp)
        lowest = self._lowest_uncompleted
        completed = self._completed_ahead
        while lowest in completed:
            completed.discard(lowest)
            lowest += 1
        self._lowest_uncompleted = lowest

    def _on_request_completed(self, request: Request) -> None:
        """Hook fired after a request completes (subclass extension point)."""

    def _on_assignment(self, src: NodeId, message: BucketAssignmentMsg) -> None:
        if self._assignment_epoch is not None and message.epoch <= self._assignment_epoch:
            return
        key = (message.epoch, message.assignment)
        votes = self._assignment_votes.setdefault(key, set())
        votes.add(src)
        if len(votes) < self.ack_quorum:
            return
        # Quorum-confirmed: adopt the new assignment and re-submit everything
        # still pending so the new leaders are guaranteed to have it.
        self._assignment_epoch = message.epoch
        self._assignment = dict(message.assignment)
        self._known_leaders = sorted(set(self._assignment.values()))
        self._projections = {}
        self._assignment_votes = {
            k: v for k, v in self._assignment_votes.items() if k[0] > message.epoch
        }
        tracer = self.tracer
        for pending in self._pending.values():
            if not pending.completed:
                if tracer is not None:
                    tracer.on_resubmit(self.sim.now, self.client_id, pending.request.rid)
                self._send_request(pending.request)

    # -------------------------------------------------------------- queries
    def pending_count(self) -> int:
        return len(self._pending)

    def outstanding_within_watermarks(self) -> bool:
        """Whether the client may submit another request without leaving its
        watermark window.

        The node-side window is ``[low, low + window)`` with ``low`` anchored
        at the *contiguous* delivered prefix of the client's timestamps, so
        the client gates on its own contiguous-completion prefix: the next
        timestamp must stay below ``lowest_uncompleted + window``.  Gating on
        the pending count instead (the previous approximation) undercounts
        the outstanding *span* when completions land out of order — one stuck
        request plus a stream of newer completions let the client emit
        timestamps beyond every node's window, and with no resubmission path
        on rejection those requests wedge until the next epoch's bucket
        reassignment (or forever, if the assignment never changes).

        The gate is an approximation in one direction only: the node-side
        ``low`` trails this client-side prefix by at most the completions of
        the current epoch (it advances only at epoch transitions), so the
        overshoot is bounded by one epoch of progress and healed by the
        epoch-driven resubmission — unlike the pending-count gate, whose
        overshoot was unbounded.
        """
        return (
            self._next_timestamp
            < self._lowest_uncompleted + self.config.client_watermark_window
        )
