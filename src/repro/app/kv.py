"""Replicated key-value store over the delivered sequence.

The service side is two small pieces:

* :class:`KVStateMachine` — a deterministic dict with three operations
  (``put``, ``get``, ``cas``), applied strictly in delivered order.  Every
  replica applying the same delivered prefix holds the same store; that is
  the entire correctness argument, inherited from SMR.
* :class:`KVApp` — the per-replica glue: it consumes the node's delivery
  stream (the same ``on_deliver`` hook the metrics collector uses in the
  simulator), applies each KV payload, and sends the result of a get or a
  cas back to the submitting client as a :class:`KVResultMsg`.  A put's
  result is the value it wrote, which its client already knows: a put
  completes on the ``f+1`` acknowledgement quorum and gets no result
  message.  Non-KV payloads (ConfigTxs, raw benchmark padding) are counted
  and skipped.

The client side, :class:`KVClient`, wraps the ordinary
:class:`~repro.core.client.Client` — signatures, bucket-leader targeting,
``f+1`` acknowledgement quorums and the retry loop all come from there —
and adds result collection for gets and cas: an operation's *value* is
trusted once ``f+1`` replicas returned the same result (matching the
weak-quorum argument for acknowledgements: at least one of any ``f+1``
matching replies is from a correct replica).

Operation payloads are a tiny length-prefixed binary codec (magic byte +
UTF-8 fields), deliberately not pickle: request payloads cross trust
boundaries, and the decoder must be safe on arbitrary bytes.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..core.client import Client
from ..core.messages import client_endpoint
from ..core.types import DeliveredRequest, RequestId
from ..runtime.codec import BOOL, INT, STR, nested, optional, register

#: Operation magic bytes (first byte of a KV payload).
OP_PUT = 0x50  # 'P'
OP_GET = 0x47  # 'G'
OP_CAS = 0x43  # 'C'

_LEN = struct.Struct(">I")


def _pack_fields(op: int, *fields: str) -> bytes:
    """Encode ``op`` plus length-prefixed UTF-8 fields."""
    out = [bytes([op])]
    for field in fields:
        raw = field.encode("utf-8")
        out.append(_LEN.pack(len(raw)))
        out.append(raw)
    return b"".join(out)


def _unpack_fields(payload: bytes, count: int) -> Optional[Tuple[str, ...]]:
    """Decode ``count`` length-prefixed UTF-8 fields after the magic byte."""
    fields = []
    offset = 1
    for _ in range(count):
        if offset + _LEN.size > len(payload):
            return None
        (length,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        if offset + length > len(payload):
            return None
        try:
            fields.append(payload[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError:
            return None
        offset += length
    if offset != len(payload):
        return None
    return tuple(fields)


def encode_put(key: str, value: str) -> bytes:
    """Payload for ``put(key, value)``: unconditionally set the key."""
    return _pack_fields(OP_PUT, key, value)


def encode_get(key: str) -> bytes:
    """Payload for ``get(key)``: an *ordered* (linearizable) read."""
    return _pack_fields(OP_GET, key)


def encode_cas(key: str, expected: str, value: str) -> bytes:
    """Payload for ``cas(key, expected, value)``: set iff current == expected."""
    return _pack_fields(OP_CAS, key, expected, value)


@dataclass(frozen=True)
class KVResult:
    """Outcome of applying one operation to the state machine.

    ``ok`` is True for a successful put/cas and for a get of an existing
    key; ``value`` carries the read value (get) or the value in place
    after the operation (put/cas).  ``None`` value means the key is unset.
    """

    ok: bool
    value: Optional[str]


class KVStateMachine:
    """Deterministic key-value store applied from the delivered sequence."""

    def __init__(self) -> None:
        self.store: Dict[str, str] = {}
        #: Operations applied (decoded KV payloads only).
        self.applied = 0
        #: Delivered payloads that were not KV operations (skipped).
        self.skipped = 0

    def apply(self, payload: bytes) -> Optional[KVResult]:
        """Apply one delivered payload; None when it is not a KV operation."""
        decoded = decode_op(payload)
        if decoded is None:
            self.skipped += 1
            return None
        self.applied += 1
        op, fields = decoded
        if op == OP_PUT:
            key, value = fields
            self.store[key] = value
            return KVResult(ok=True, value=value)
        if op == OP_GET:
            (key,) = fields
            value = self.store.get(key)
            return KVResult(ok=value is not None, value=value)
        key, expected, value = fields
        if self.store.get(key) == expected:
            self.store[key] = value
            return KVResult(ok=True, value=value)
        return KVResult(ok=False, value=self.store.get(key))


def decode_op(payload: bytes) -> Optional[Tuple[int, Tuple[str, ...]]]:
    """Decode a KV payload into ``(op, fields)``, or None if it is not one."""
    if not payload:
        return None
    op = payload[0]
    arity = {OP_PUT: 2, OP_GET: 1, OP_CAS: 3}.get(op)
    if arity is None:
        return None
    fields = _unpack_fields(payload, arity)
    if fields is None:
        return None
    return op, fields


@dataclass(frozen=True)
class KVResultMsg:
    """One replica's result for one delivered get or cas.

    Sent to the submitting client's endpoint right after the operation is
    applied; the client trusts a result once ``f+1`` replicas agree on it.
    Puts get none: their callers complete on the acknowledgement quorum.
    """

    rid: RequestId
    node: int
    ok: bool
    value: Optional[str]

    def wire_size(self) -> int:
        """Estimated wire footprint (header + rid + result value)."""
        return 40 + (len(self.value) if self.value is not None else 0)


register(KVResultMsg, 0x60, rid=nested(RequestId), node=INT, ok=BOOL, value=optional(STR))


class KVApp:
    """Per-replica application: apply delivered KV operations, answer reads.

    Plugs into the node as its ``on_deliver`` listener.  Every KV operation
    is applied; only a get or a cas sends its result to the client, the
    two operations whose callers wait for one.  During recovery
    replay (``replaying`` set by the host) results are applied but not
    re-sent — the pre-crash incarnation already responded, and clients
    absorb duplicates by request id anyway.
    """

    def __init__(self, node_id: int, transport):
        self.node_id = node_id
        self.transport = transport
        #: True while recovery replays the restored prefix through us.
        self.replaying = False
        self.machine = KVStateMachine()

    def on_deliver(self, node_id: int, item: DeliveredRequest) -> None:
        """Delivery listener: apply the operation, answer a get or a cas."""
        payload = item.request.payload
        result = self.machine.apply(payload)
        if result is None or self.replaying or payload[0] == OP_PUT:
            return  # a put's caller completes on the acknowledgement quorum
        rid = item.request.rid
        self.transport.send(
            self.node_id,
            client_endpoint(rid.client),
            KVResultMsg(rid=rid, node=self.node_id, ok=result.ok, value=result.value),
        )


@dataclass
class _PendingOp:
    """Client-side tracking of one in-flight operation."""

    acked: asyncio.Future
    resolved: asyncio.Future
    #: Votes per distinct result: (ok, value) -> replica set.
    votes: Dict[Tuple[bool, Optional[str]], Set[int]]


@dataclass(frozen=True)
class KVOutcome:
    """What one completed KV operation returned.

    ``latency`` is submit-to-ack-quorum in seconds.  ``ok``/``value`` are
    the ``f+1``-confirmed result, or ``None``/``None`` when the caller did
    not wait for result confirmation (plain acked writes).
    """

    rid: RequestId
    latency: float
    ok: Optional[bool]
    value: Optional[str]


class KVClient:
    """Client-side KV API over the ordinary SMR client.

    Wraps a :class:`~repro.core.client.Client` (which owns signing,
    targeting, ack quorums and retries) and layers result collection on
    the same endpoint: :class:`KVResultMsg` frames are tallied here, all
    other messages pass through to the wrapped client.
    """

    def __init__(
        self, client_id: int, config, clock, transport, key_store, first_timestamp=0
    ):
        self._loop = asyncio.get_running_loop()
        self.client = Client(
            client_id=client_id,
            config=config,
            sim=clock,
            network=transport,
            key_store=key_store,
            on_complete=self._on_ack_quorum,
            first_timestamp=first_timestamp,
        )
        self.config = config
        self._pending: Dict[RequestId, _PendingOp] = {}
        self.completed = 0
        # Take over the endpoint: KV results are consumed here, everything
        # else (acks, bucket assignments) flows to the wrapped client.
        transport.register(self.client.endpoint, self._on_message)

    # -------------------------------------------------------------- messages
    def _on_message(self, src: int, message: object) -> None:
        if isinstance(message, KVResultMsg):
            self._on_result(src, message)
        else:
            self.client.on_message(src, message)

    def _on_ack_quorum(self, client_id, request, submitted_at, completed_at) -> None:
        pending = self._pending.get(request.rid)
        if pending is not None and not pending.acked.done():
            pending.acked.set_result(completed_at - submitted_at)

    def _on_result(self, src: int, message: KVResultMsg) -> None:
        pending = self._pending.get(message.rid)
        if pending is None or pending.resolved.done():
            return
        voters = pending.votes.setdefault((message.ok, message.value), set())
        voters.add(message.node)
        if len(voters) >= self.config.weak_quorum:
            pending.resolved.set_result((message.ok, message.value))

    # ------------------------------------------------------------ operations
    async def execute(
        self,
        payload: bytes,
        want_result: bool = False,
        timeout: float = 60.0,
    ) -> KVOutcome:
        """Submit one operation and await its completion.

        Always waits for the ``f+1`` acknowledgement quorum (the SMR
        completion the retry loop guarantees).  With ``want_result`` it
        additionally waits for ``f+1`` matching :class:`KVResultMsg`
        replies and returns their value (gets and conditional writes).
        """
        request = self.client.submit(payload)
        pending = _PendingOp(
            acked=self._loop.create_future(),
            resolved=self._loop.create_future(),
            votes={},
        )
        self._pending[request.rid] = pending
        try:
            latency = await asyncio.wait_for(pending.acked, timeout)
            ok: Optional[bool] = None
            value: Optional[str] = None
            if want_result:
                ok, value = await asyncio.wait_for(pending.resolved, timeout)
            self.completed += 1
            return KVOutcome(rid=request.rid, latency=latency, ok=ok, value=value)
        finally:
            del self._pending[request.rid]

    async def put(self, key: str, value: str, timeout: float = 60.0) -> KVOutcome:
        """Replicated unconditional write (completes at the ack quorum)."""
        return await self.execute(encode_put(key, value), timeout=timeout)

    async def get(self, key: str, timeout: float = 60.0) -> KVOutcome:
        """Linearizable read: ordered through consensus, ``f+1``-confirmed."""
        return await self.execute(encode_get(key), want_result=True, timeout=timeout)

    async def cas(
        self, key: str, expected: str, value: str, timeout: float = 60.0
    ) -> KVOutcome:
        """Compare-and-swap; ``ok`` reports whether the swap applied."""
        return await self.execute(
            encode_cas(key, expected, value), want_result=True, timeout=timeout
        )
