"""Wire-size estimation and cross-protocol small-message batching.

This is the transport-independent half of the wire layer.  It knows nothing
about NICs, latency models or sockets — only about *messages*: how big one
claims to be on the wire, which types are safe to coalesce, and how to
buffer and flush coalesced frames against any :class:`~repro.runtime.api.
Scheduler` (the discrete-event simulator and the wall-clock backend both
qualify; :class:`MessageBatcher` touches nothing beyond ``now`` and
``schedule_callback_at``).

At scale, the dominant cost is no longer *what* the protocols compute but
*how many* wire messages they exchange: every protocol vote (PBFT
PREPARE/COMMIT, HotStuff votes, Raft append-entries replies, BRB echoes),
every client request and every aggregated client acknowledgement pays one
serialisation, one latency sample and one delivery event.  Real deployments
do not send these tiny messages individually either — transports coalesce
them (Nagle-style) into larger frames:

* message types opt in through :func:`register_batchable` (votes and other
  small, latency-tolerant messages; proposals and payload-carrying messages
  stay unbatched);
* :class:`MessageBatcher` coalesces opted-in messages per ``(sender,
  receiver, flush tick)`` into a single :class:`MessageBatchMsg` on the
  wire, where flush ticks are clock windows of ``flush_interval`` seconds;
* the receiving transport endpoint unpacks the batch and hands every
  payload to the registered handler individually and in send order, so
  per-vote delivery semantics are unchanged — only the arrival *times*
  quantise to tick boundaries.

Batching is off by default (``NetworkConfig.batch_flush_interval = 0``); the
perf gate's batched scenario and the figure benchmarks enable it.  Everything
here is deterministic: buffers flush at fixed tick boundaries through the
scheduler's ordered callback path, so same-seed simulator runs produce
identical schedules (pinned by the batched golden trace in
``tests/test_batching.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .api import Scheduler
from .codec import ANY, INT, register, tuple_of

#: Wire-size strategies, resolved once per message type (see :func:`wire_size`).
_SIZE_WIRE, _SIZE_BYTES, _SIZE_DEFAULT = 0, 1, 2
_SIZE_KIND_BY_TYPE: Dict[type, int] = {}


def wire_size(message: object) -> int:
    """Best-effort estimate of a message's wire size in bytes.

    Protocol messages expose ``wire_size()``; payload-carrying objects expose
    ``size_bytes()``.  Anything else is charged a small fixed header, which
    matches the digest-sized votes most protocols exchange.  The accessor
    choice is cached per message type so the common path costs one dict hit.
    """
    cls = message.__class__
    kind = _SIZE_KIND_BY_TYPE.get(cls)
    if kind is None:
        if callable(getattr(cls, "wire_size", None)):
            kind = _SIZE_WIRE
        elif callable(getattr(cls, "size_bytes", None)):
            kind = _SIZE_BYTES
        else:
            kind = _SIZE_DEFAULT
        _SIZE_KIND_BY_TYPE[cls] = kind
    if kind == _SIZE_WIRE:
        return int(message.wire_size())
    if kind == _SIZE_BYTES:
        return int(message.size_bytes())
    return 96


#: Fixed framing overhead charged per wire batch (length prefix + counts).
BATCH_HEADER_BYTES = 16

#: Registered batchable types: ``True`` (always batchable) or a predicate
#: ``fn(message) -> bool`` for envelope types whose batchability depends on
#: the wrapped payload (e.g. ``InstanceMessage``).
_REGISTRY: Dict[type, object] = {}


def register_batchable(
    cls: type, predicate: Optional[Callable[[object], bool]] = None
) -> type:
    """Mark a message type as safe to coalesce into wire batches.

    Only small, latency-tolerant messages should opt in: votes,
    acknowledgements, requests.  Proposals and other payload-carrying
    messages should stay unbatched so their latency is unaffected.
    ``predicate`` lets envelope types defer the decision to their payload.
    Returns ``cls`` so the call can be used as a class decorator.
    """
    _REGISTRY[cls] = predicate if predicate is not None else True
    return cls


def is_batchable(message: object) -> bool:
    """True when ``message`` may be coalesced into a wire batch."""
    entry = _REGISTRY.get(message.__class__)
    if entry is None:
        return False
    if entry is True:
        return True
    return bool(entry(message))


@dataclass(frozen=True)
class MessageBatchMsg:
    """One wire frame carrying several coalesced protocol messages.

    The payload tuple preserves send order; the receiving network endpoint
    delivers every payload to the destination's handler individually, exactly
    as if each had arrived in its own message at the same instant.  ``size``
    is precomputed by the batcher (header plus the sum of the payloads' wire
    sizes) so the network's cached wire-size accessor stays O(1).
    """

    payloads: Tuple[object, ...]
    size: int

    def wire_size(self) -> int:
        return self.size


register(MessageBatchMsg, 0x01, payloads=tuple_of(ANY), size=INT)


class BatcherStats:
    """Counters describing what the batcher did (for tests and reports)."""

    __slots__ = ("payloads_enqueued", "batches_flushed", "singletons_flushed")

    def __init__(self) -> None:
        self.payloads_enqueued = 0
        #: Flushes that produced a multi-payload :class:`MessageBatchMsg`.
        self.batches_flushed = 0
        #: Flushes whose buffer held one message (sent unwrapped).
        self.singletons_flushed = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "payloads_enqueued": self.payloads_enqueued,
            "batches_flushed": self.batches_flushed,
            "singletons_flushed": self.singletons_flushed,
        }


class MessageBatcher:
    """Per-transport aggregator coalescing messages per (src, dst, flush tick).

    The batcher never talks to the transport directly: the host hands it a
    ``send_fn(src, dst, message, size_bytes)`` (the transport's immediate
    send path) and passes every payload's wire size along with it.
    Buffered messages for one link flush together at the next tick boundary
    — clock times that are integer multiples of ``flush_interval`` — through
    the scheduler's callback path.  Only ``sim.now`` and
    ``sim.schedule_callback_at`` are used, so the same batcher runs over the
    deterministic simulator and the wall-clock asyncio backend.
    """

    def __init__(
        self,
        sim: Scheduler,
        flush_interval: float,
        send_fn: Callable[[int, int, object, int], None],
    ):
        if flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        self.sim = sim
        self.flush_interval = flush_interval
        self._send = send_fn
        #: Pending payloads per directed link, in first-send order.
        self._buffers: Dict[Tuple[int, int], List[object]] = {}
        #: Running wire-size sum per link, maintained at enqueue time so the
        #: flush loop never re-walks a buffer to size its frame.
        self._buffer_sizes: Dict[Tuple[int, int], int] = {}
        #: Whether the single per-tick flush callback is already scheduled.
        #: One event flushes *all* links at the tick boundary, so the batching
        #: layer adds at most one scheduler event per flush interval.
        self._flush_scheduled = False
        self.stats = BatcherStats()

    # -------------------------------------------------------------- enqueue
    def enqueue(self, src: int, dst: int, message: object, size: int) -> None:
        """Buffer ``message`` for the (src, dst) link's next flush tick.

        ``size`` is the payload's wire size; the caller measures it (once
        per multicast, not once per link) and it is folded into the link's
        running sum — the flush tick then only reads precomputed totals
        (see ``_buffer_sizes``).
        """
        self.stats.payloads_enqueued += 1
        key = (src, dst)
        buffers = self._buffers
        buffer = buffers.get(key)
        if buffer is not None:
            buffer.append(message)
            self._buffer_sizes[key] += size
            return
        buffers[key] = [message]
        self._buffer_sizes[key] = size
        if not self._flush_scheduled:
            self._flush_scheduled = True
            interval = self.flush_interval
            # Next tick boundary strictly after `now`: messages enqueued at
            # the boundary itself wait one full interval, everything else
            # less (Δ/2 on average).  Float floor-division can land exactly
            # on `now` (e.g. 0.06 // 0.02 == 2.0), so bump once if it does.
            now = self.sim.now
            tick = (now // interval + 1.0) * interval
            if tick <= now:
                tick += interval
            self.sim.schedule_callback_at(tick, self._flush_tick)

    # ---------------------------------------------------------------- flush
    def _flush_tick(self) -> None:
        """Flush every buffered link (the per-tick scheduler event).

        Links flush in first-send order, which is deterministic; each link's
        payloads keep their send order inside the wire frame.
        """
        self._flush_scheduled = False
        buffers = self._buffers
        if not buffers:
            return
        sizes = self._buffer_sizes
        self._buffers = {}
        self._buffer_sizes = {}
        stats = self.stats
        send = self._send
        for key, buffer in buffers.items():
            src, dst = key
            if len(buffer) == 1:
                # A lone message needs no envelope; it goes out as itself,
                # with the wire size already computed at enqueue time.
                stats.singletons_flushed += 1
                send(src, dst, buffer[0], sizes[key])
                continue
            stats.batches_flushed += 1
            size = BATCH_HEADER_BYTES + sizes[key]
            send(src, dst, MessageBatchMsg(payloads=tuple(buffer), size=size), size)

    def flush_all(self) -> None:
        """Force-flush every pending buffer immediately (drain helper)."""
        self._flush_tick()

    def pending_payloads(self) -> int:
        """Messages currently buffered and awaiting their flush tick."""
        return sum(len(buffer) for buffer in self._buffers.values())
