"""Request-lifecycle tracer: causal span events for sampled requests.

The tracer is an append-only in-memory event log.  Every instrumentation
hook in the pipeline (client submit/retry, bucket admission, SB proposal,
protocol votes, commit, delivery, checkpoint, client response quorum,
network drops/retransmits, crash recovery) is one method call recording one
small tuple — no I/O, no string formatting, no RNG.  Span assembly and
export happen *after* the run (:mod:`repro.obs.spans`,
:mod:`repro.obs.export`), so the per-event cost on the simulated hot path
stays a list append.

Zero overhead when disabled: components hold ``tracer = None`` and every
call site is guarded by ``if tracer is not None:``.  The tracer is never
consulted, never allocated, and schedules nothing in that case, which keeps
golden traces bit-identical.

Sampling is deterministic and process-independent: a request is traced iff
the cached integer mix of its :class:`~repro.core.types.RequestId` falls
under the sampling threshold.  The same request is therefore traced (or
not) on every node and across crash/restart — no RNG
stream is consumed, so enabling tracing cannot perturb the simulation.

Event record layout (flat 5-tuples, ``(kind, time, actor, key, detail)``):

==============  ==========  ======================  =============================
kind            actor       key                     detail
==============  ==========  ======================  =============================
``submit``      client id   rid                     ``None``
``retry``       client id   rid                     attempt number
``resubmit``    client id   rid                     ``None`` (epoch-change resend)
``quorum``      client id   rid                     ``None`` (f+1 responses)
``admit``       node id     rid                     ``None`` (bucket admission)
``duplicate``   node id     rid                     ``None`` (re-ack path)
``reject``      node id     rid                     reason string
``propose``     node id     (instance, sn)          tuple of traced rids in batch
``sb``          node id     (instance, sn)          protocol phase string
``commit``      node id     (instance, sn)          ``True`` iff ⊥ was committed
``deliver``     node id     ``None``                tuple of traced rids delivered
``complete``    ``-1``      rid                     ``None`` (delivery quorum)
``checkpoint``  node id     epoch                   ``None`` (stable checkpoint)
``drop``        src node    (dst, rid-or-None)      drop cause string
``retransmit``  src node    (dst, rid-or-None)      ``None``
``recovery``    node id     phase string            count
==============  ==========  ======================  =============================
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..core.types import RequestId

#: Span-event kind tags (also the JSONL/Chrome export vocabulary).
EVT_SUBMIT = "submit"
EVT_RETRY = "retry"
EVT_RESUBMIT = "resubmit"
EVT_QUORUM = "quorum"
EVT_ADMIT = "admit"
EVT_DUPLICATE = "duplicate"
EVT_REJECT = "reject"
EVT_PROPOSE = "propose"
EVT_SB = "sb"
EVT_COMMIT = "commit"
EVT_DELIVER = "deliver"
EVT_COMPLETE = "complete"
EVT_CHECKPOINT = "checkpoint"
EVT_DROP = "drop"
EVT_RETRANSMIT = "retransmit"
EVT_RECOVERY = "recovery"
EVT_MEMBERSHIP = "membership"


class RequestTracer:
    """Append-only causal event log for sampled requests.

    One instance is shared by every component of a deployment (clients,
    nodes, protocols via :class:`~repro.core.sb.SBContext`, the network,
    the recovery manager, the metrics collector).  All methods are cheap
    enough for the simulated hot path; heavy lifting is deferred to
    :func:`repro.obs.spans.assemble_spans`.
    """

    __slots__ = ("sample", "events", "_sample_all", "_threshold", "_traced")

    def __init__(self, sample: float = 1.0):
        self.sample = sample
        #: Flat, append-only event tuples in emission order.
        self.events: List[Tuple] = []
        self._sample_all = sample >= 1.0
        # Compare against the low 32 bits of RequestId._mix: deterministic,
        # process-independent, identical across restarts.
        self._threshold = int(min(1.0, max(0.0, sample)) * 2**32)
        self._traced: Set[RequestId] = set()

    def wants(self, rid: RequestId) -> bool:
        """True iff ``rid`` is in the traced sample (always true at 1.0)."""
        return self._sample_all or rid in self._traced

    # ------------------------------------------------------------- client
    def on_submit(self, time: float, client: int, rid: RequestId) -> None:
        """Client submitted a fresh request; decides the sampling verdict."""
        if not self._sample_all:
            if (rid._mix & 0xFFFFFFFF) >= self._threshold:
                return
            self._traced.add(rid)
        self.events.append((EVT_SUBMIT, time, client, rid, None))

    def on_retry(self, time: float, client: int, rid: RequestId, attempt: int) -> None:
        """Client retry timer fired and the request was re-sent."""
        if self.wants(rid):
            self.events.append((EVT_RETRY, time, client, rid, attempt))

    def on_resubmit(self, time: float, client: int, rid: RequestId) -> None:
        """Client re-sent a pending request after an epoch reassignment."""
        if self.wants(rid):
            self.events.append((EVT_RESUBMIT, time, client, rid, None))

    def on_quorum(self, time: float, client: int, rid: RequestId) -> None:
        """Client collected its ``f+1``-th response (weak quorum reached)."""
        if self.wants(rid):
            self.events.append((EVT_QUORUM, time, client, rid, None))

    # --------------------------------------------------------------- node
    def on_admit(self, time: float, node: int, rid: RequestId) -> None:
        """A node admitted the request into its bucket pool."""
        if self.wants(rid):
            self.events.append((EVT_ADMIT, time, node, rid, None))

    def on_duplicate(self, time: float, node: int, rid: RequestId) -> None:
        """A node saw the request again (already delivered/pending)."""
        if self.wants(rid):
            self.events.append((EVT_DUPLICATE, time, node, rid, None))

    def on_reject(self, time: float, node: int, rid: RequestId, reason: str) -> None:
        """A node's validator refused the request."""
        if self.wants(rid):
            self.events.append((EVT_REJECT, time, node, rid, reason))

    def on_propose(self, time: float, node: int, instance, sn: int, rids: Tuple[RequestId, ...]) -> None:
        """A segment leader cut a batch for ``sn``; ``rids`` are its traced requests."""
        self.events.append((EVT_PROPOSE, time, node, (instance, sn), rids))

    def on_sb(self, time: float, node: int, instance, sn: int, phase: str) -> None:
        """A protocol-level phase transition (prepare/commit vote, decided...)."""
        self.events.append((EVT_SB, time, node, (instance, sn), phase))

    def on_commit(self, time: float, node: int, instance, sn: int, nil: bool) -> None:
        """A node committed slot ``sn`` of ``instance`` into its log."""
        self.events.append((EVT_COMMIT, time, node, (instance, sn), nil))

    def on_deliver_batch(self, time: float, node: int, items) -> None:
        """A node's contiguous delivery advanced by ``items``.

        One event per advance, not per request: everything delivered in one
        advance shares the timestamp, so batching keeps the cost of the
        single hottest hook (every request × every node) to one tuple
        comprehension plus one append.
        """
        if self._sample_all:
            rids = tuple(item.request.rid for item in items)
        else:
            traced = self._traced
            rids = tuple(
                item.request.rid for item in items if item.request.rid in traced
            )
        if rids:
            self.events.append((EVT_DELIVER, time, node, None, rids))

    def on_complete(self, time: float, rid: RequestId) -> None:
        """The run-wide delivery quorum completed the request."""
        if self.wants(rid):
            self.events.append((EVT_COMPLETE, time, -1, rid, None))

    def on_checkpoint(self, time: float, node: int, epoch: int) -> None:
        """A node reached a stable checkpoint for ``epoch``."""
        self.events.append((EVT_CHECKPOINT, time, node, epoch, None))

    # ------------------------------------------------------------ network
    def on_drop(self, time: float, src: int, dst: int, cause: str, rid: Optional[RequestId]) -> None:
        """The network dropped a message (``rid`` when it carried a request)."""
        if rid is not None and not self.wants(rid):
            rid = None
        self.events.append((EVT_DROP, time, src, (dst, rid), cause))

    def on_retransmit(self, time: float, src: int, dst: int, rid: Optional[RequestId]) -> None:
        """A lossy-link transport retransmitted a dropped payload."""
        if rid is not None and not self.wants(rid):
            rid = None
        self.events.append((EVT_RETRANSMIT, time, src, (dst, rid), None))

    # ----------------------------------------------------------- recovery
    def on_recovery(self, time: float, node: int, phase: str, count: int) -> None:
        """A recovery phase (snapshot/wal/fast-forward/redeliver) finished."""
        self.events.append((EVT_RECOVERY, time, node, phase, count))

    # --------------------------------------------------------- membership
    def on_membership(self, time: float, node: int, epoch: int, added, removed) -> None:
        """A node activated a committed membership change for ``epoch``."""
        self.events.append((EVT_MEMBERSHIP, time, node, epoch, (added, removed)))
