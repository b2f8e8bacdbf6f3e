"""Replicated key-value store over the delivered sequence.

* :class:`KVPut`, :class:`KVGet` and :class:`KVCas` are the operations:
  registered codec types, so a request payload is a
  :func:`~repro.runtime.codec.encode` body, and arbitrary bytes decode to a
  registered object or a :class:`~repro.runtime.codec.CodecError`, nothing
  else.  Any payload that is no operation (a ConfigTx, benchmark padding,
  another type) is counted and skipped.
* :class:`KVStateMachine` — a deterministic dict applied strictly in
  delivered order: every replica applying the same delivered prefix holds
  the same store (the SMR argument), which :meth:`~KVStateMachine.digest`
  lets anyone check.
* :class:`KVApp` — one replica's delivery listener.  It applies each
  operation and returns the result of a get or a cas as a
  :class:`KVResultMsg`, which the node sends to the client; a put completes
  on the ``f+1`` acknowledgement quorum and gets none.  Recovery replays
  through it and drops the replies.  The live node process and the
  simulator (``Deployment(app=KVApp)``) build it the same way.
* :class:`KVClient` wraps the ordinary :class:`~repro.core.client.Client`
  (signatures, targeting, ack quorums, retries) and trusts a get's or a
  cas's value once ``f+1`` replicas — counted by the transport's source —
  returned it: at least one of them is correct.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..core.client import Client
from ..core.types import DeliveredRequest, RequestId
from ..runtime.codec import BOOL, INT, STR, CodecError, decode, encode, nested, optional, register


@dataclass(frozen=True)
class KVPut:
    """``put(key, value)``: unconditionally set the key."""

    key: str
    value: str


@dataclass(frozen=True)
class KVGet:
    """``get(key)``: an *ordered* (linearizable) read."""

    key: str


@dataclass(frozen=True)
class KVCas:
    """``cas(key, expected, value)``: set iff the current value == expected."""

    key: str
    expected: str
    value: str


register(KVPut, 0x61, key=STR, value=STR)
register(KVGet, 0x62, key=STR)
register(KVCas, 0x63, key=STR, expected=STR, value=STR)


def encode_put(key: str, value: str) -> bytes:
    """Payload for ``put(key, value)``."""
    return encode(KVPut(key, value))


def encode_get(key: str) -> bytes:
    """Payload for ``get(key)``."""
    return encode(KVGet(key))


def encode_cas(key: str, expected: str, value: str) -> bytes:
    """Payload for ``cas(key, expected, value)``."""
    return encode(KVCas(key, expected, value))


def decode_op(payload: bytes) -> object:
    """The registered object ``payload`` encodes (an operation or not), or None."""
    try:
        return decode(payload)
    except CodecError:
        return None


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
        return self.execute(decode_op(payload))

    def execute(self, op: object) -> Optional[KVResult]:
        """Apply one decoded payload; None (and skipped) unless it is an op."""
        if isinstance(op, KVPut):
            self.store[op.key] = op.value
            result = KVResult(ok=True, value=op.value)
        elif isinstance(op, KVGet):
            value = self.store.get(op.key)
            result = KVResult(ok=value is not None, value=value)
        elif isinstance(op, KVCas):
            if self.store.get(op.key) == op.expected:
                self.store[op.key] = op.value
                result = KVResult(ok=True, value=op.value)
            else:
                result = KVResult(ok=False, value=self.store.get(op.key))
        else:
            self.skipped += 1
            return None
        self.applied += 1
        return result

    def digest(self) -> str:
        """SHA-256 (hex) over the sorted store, each pair as its put's payload."""
        sha = hashlib.sha256()
        for key, value in sorted(self.store.items()):
            sha.update(encode_put(key, value))
        return sha.hexdigest()


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
    """One replica's application: apply delivered KV operations, answer reads.

    Its :meth:`on_deliver` is the node's delivery listener.  Only a get or a
    cas returns a result, the two operations whose callers wait for one.
    Recovery replay drops it: the pre-crash incarnation already answered.
    """

    def __init__(self) -> None:
        self.machine = KVStateMachine()

    def on_deliver(self, node_id: int, item: DeliveredRequest) -> Optional[KVResultMsg]:
        """Delivery listener: apply the operation; the reply of a get or a cas."""
        op = decode_op(item.request.payload)
        result = self.machine.execute(op)
        if result is None or isinstance(op, KVPut):
            return None  # a put's caller completes on the acknowledgement quorum
        return KVResultMsg(rid=item.request.rid, node=node_id, ok=result.ok, value=result.value)


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
        self._pending: Dict[RequestId, _PendingOp] = {}
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
        if message.node != src:
            return  # a replica votes once, as itself
        pending = self._pending.get(message.rid)
        if pending is None or pending.resolved.done():
            return
        voters = pending.votes.setdefault((message.ok, message.value), set())
        voters.add(src)
        if len(voters) >= self.client.ack_quorum:
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
