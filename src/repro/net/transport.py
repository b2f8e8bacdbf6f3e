"""TCP implementation of the :class:`~repro.runtime.api.Transport`.

Wire format: each message is one frame — a 12-byte header (body length,
source endpoint, destination endpoint; :data:`~repro.runtime.codec.
FRAME_HEADER`) followed by the message's :mod:`repro.runtime.codec` body.
The message objects are the exact protocol dataclasses the simulator's
network carries by reference; the codec gives each registered type one
struct-packed encoding, and the same encoding is what the WAL stores.  Only
registered types cross a socket: sending anything else raises
:class:`~repro.runtime.codec.CodecError`, and a frame that is oversize or
does not decode is counted (``frames_rejected``) and closes its connection,
so bytes from a socket reach no deserialiser but the codec's.

Connection model, mirroring how real SMR deployments wire up:

* **Static peers** (the replicas) are known up front.  Each transport keeps
  one outbound connection per peer, maintained by that peer's connect loop
  (the transport's only tasks), and one bounded outbox per peer that
  outlives its connections: frames queued while a peer is down leave once
  it returns, and a full outbox drops the newest frame (the protocols'
  retransmission and client retries absorb loss, exactly the unreliable-
  channel contract :class:`~repro.runtime.api.Transport` documents).
* **Dynamic endpoints** (the clients) are learned from inbound traffic: a
  replica remembers which connection a client endpoint's frames arrived on
  and routes replies back over it, so clients need no listening socket.
* **Local endpoints** short-circuit: a message to an endpoint registered
  on this transport is dispatched through the event loop without touching
  a socket or the codec (a node messaging itself, or in-process tests).

Every connection is one :class:`asyncio.Protocol` object, so neither
direction costs a task switch.  It decodes every complete frame of each
chunk the socket hands it, joining a frame that spans chunks once, when it
is complete.  A multicast encodes its body once and reuses it for every
destination (only the header differs); the frames bound for one
connection during one loop turn leave in a single write, made by one
``call_soon`` flush for all connections.

Wire batching is the same transport-independent layer the simulator uses:
with ``batch_flush_interval > 0`` a :class:`~repro.runtime.wire.
MessageBatcher` coalesces batchable messages per (src, dst, flush tick)
into one frame, and the receive path unpacks
:class:`~repro.runtime.wire.MessageBatchMsg` frames payload by payload.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..runtime.api import MessageHandler
from ..runtime.codec import FRAME_HEADER, CodecError, decode, encode_into
from ..runtime.wire import MessageBatcher, MessageBatchMsg, is_batchable, wire_size

#: Refuse frames beyond this (a corrupted length prefix must not OOM us).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Per-peer outbox depth in frames; overflow drops the newest frame.
PEER_QUEUE_DEPTH = 4096

HEADER_SIZE, _unpack_header = FRAME_HEADER.size, FRAME_HEADER.unpack_from


def encode_frame(
    src: int, dst: int, message: object, *, body: Optional[memoryview] = None
) -> bytes:
    """One wire frame carrying ``message`` from ``src`` to ``dst``.

    ``body`` is the already-encoded body of ``message`` — a multicast's
    later destinations pass what the first call returned past the header
    (:func:`frame_body`), so only the header is packed again.
    """
    if body is not None:
        return FRAME_HEADER.pack(len(body), src, dst) + body
    frame = bytearray(FRAME_HEADER.size)
    encode_into(frame, message)
    FRAME_HEADER.pack_into(frame, 0, len(frame) - FRAME_HEADER.size, src, dst)
    return frame


def frame_body(frame: bytes) -> memoryview:
    """The body of ``frame`` (no copy), for :func:`encode_frame`'s ``body``."""
    return memoryview(frame)[FRAME_HEADER.size:]


class TransportStats:
    """Counters describing what the transport did (tests and reports)."""

    __slots__ = ("messages_sent", "bytes_sent", "messages_dropped",
                 "frames_received", "frames_rejected", "connects")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Sends with no route: unknown endpoint, dead learned route, or a
        #: full peer outbox.
        self.messages_dropped = 0
        self.frames_received = 0
        #: Inbound frames refused — oversize, undecodable, or of an unknown
        #: codec version; each closes the connection it arrived on.
        self.frames_rejected = 0
        #: Successful outbound connection establishments (reconnects count).
        self.connects = 0

    def as_dict(self) -> Dict[str, int]:
        """Flat counter view for figures and debugging."""
        return {name: getattr(self, name) for name in self.__slots__}


class _Link(asyncio.Protocol):
    """One TCP connection: decodes what arrives, writes what its outbox holds.

    A static peer's outbound link shares that peer's outbox, which outlives
    the connection; an accepted link owns its own.  On an accepted link
    (``learn``) a frame from an endpoint that is not a static peer makes
    this link that endpoint's reply route.
    """

    def __init__(self, owner: "TcpTransport", outbox: List[bytes], learn: bool):
        self.owner = owner
        self.outbox = outbox
        self.learn = learn
        self.transport: Optional[asyncio.Transport] = None
        self.paused = False  # socket buffer over its high-water mark
        #: An incomplete frame's parts, their total size and the size they
        #: must reach before they are joined and decoded.
        self._parts: List[bytes] = []
        self._have = self._need = 0
        #: Resolved by :meth:`connection_lost` (a connect loop waits on it).
        self.lost = owner._loop.create_future()

    # ----------------------------------------------------- protocol callbacks
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.owner._open.add(self)

    def connection_lost(self, exc) -> None:
        owner = self.owner
        owner._open.discard(self)
        if self.learn:
            stale = [ep for ep, link in owner._routes.items() if link is self]
            for endpoint in stale:
                del owner._routes[endpoint]
        if not self.lost.done():
            self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.outbox:
            self.owner._mark(self)

    def data_received(self, data: bytes) -> None:
        """Dispatch every complete frame; keep the rest for the next call.

        A frame's parts are joined once, when the bytes completing it
        arrive; an oversize or undecodable frame closes the connection.
        """
        parts = self._parts
        if parts:
            parts.append(data)
            self._have += len(data)
            if self._have < self._need:
                return
            data = b"".join(parts)
            parts.clear()
        owner, stats = self.owner, self.owner.stats
        size, pos = len(data), 0
        while size - pos >= HEADER_SIZE:
            length, src, dst = _unpack_header(data, pos)
            if length > MAX_FRAME_BYTES:
                self._reject()
                return
            end = pos + HEADER_SIZE + length
            if end > size:
                break
            try:
                message = decode(data, pos + HEADER_SIZE, end)
            except CodecError:
                self._reject()
                return
            stats.frames_received += 1
            if self.learn and src not in owner._peers:
                owner._routes[src] = self
            owner._dispatch(src, dst, message)
            pos = end
        if pos < size:
            rest = data[pos:] if pos else data
            parts.append(rest)
            self._have = len(rest)
            self._need = HEADER_SIZE
            if len(rest) >= HEADER_SIZE:
                self._need += _unpack_header(rest)[0]

    def _reject(self) -> None:
        self.owner.stats.frames_rejected += 1
        self.transport.close()


class TcpTransport:
    """Asyncio TCP transport satisfying :class:`~repro.runtime.api.Transport`.

    Construct on the event loop, then ``await start()`` before sending.
    ``peers`` maps replica endpoints to ``(host, port)``; ``listen`` is
    this process's own ``(host, port)`` server address, or ``None`` for a
    client-only transport that never accepts connections.
    """

    def __init__(
        self,
        clock,
        peers: Dict[int, Tuple[str, int]],
        listen: Optional[Tuple[str, int]] = None,
        batch_flush_interval: float = 0.0,
        reconnect_delay: float = 0.1,
    ):
        self._loop = clock._loop
        self._peers = dict(peers)
        self._listen = listen
        self._reconnect_delay = reconnect_delay
        self._handlers: Dict[int, MessageHandler] = {}
        #: Each static peer's bounded outbox (kept across reconnects) and
        #: its link while one is connected.
        self._outboxes: Dict[int, List[bytes]] = {peer: [] for peer in self._peers}
        self._links: Dict[int, _Link] = {}
        #: Learned client routes: endpoint -> the accepted link it spoke on.
        self._routes: Dict[int, _Link] = {}
        #: Links whose outbox went non-empty this loop turn (one flush).
        self._dirty: List[_Link] = []
        self._open: Set[_Link] = set()
        self._tasks: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False
        self.stats = TransportStats()
        #: Cross-protocol wire batching (same layer the simulator uses).
        self.batcher: Optional[MessageBatcher] = None
        if batch_flush_interval > 0:
            self.batcher = MessageBatcher(clock, batch_flush_interval, self._send_now)

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the server (if any) and start one connect loop per peer."""
        if self._listen is not None:
            host, port = self._listen
            self._server = await self._loop.create_server(
                lambda: _Link(self, [], learn=True), host, port
            )
        for peer_id in self._peers:
            self._tasks.append(self._loop.create_task(self._connect_loop(peer_id)))

    async def close(self) -> None:
        """Stop accepting, cancel the connect loops, close every connection."""
        self._closed = True
        if self._server is not None:
            self._server.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for link in list(self._open):
            link.transport.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._routes.clear()

    # ----------------------------------------------------- Transport surface
    def register(self, endpoint: int, handler: MessageHandler) -> None:
        """Attach ``handler`` for frames addressed to ``endpoint``."""
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: int) -> None:
        """Detach ``endpoint``'s handler; frames for it drop from then on."""
        self._handlers.pop(endpoint, None)

    def send(
        self, src: int, dst: int, message: object, size_bytes: Optional[int] = None
    ) -> None:
        """Send ``message`` from ``src`` to ``dst`` (fire and forget)."""
        if self.batcher is not None and is_batchable(message):
            size = wire_size(message) if size_bytes is None else size_bytes
            self.batcher.enqueue(src, dst, message, size)
            return
        self._route(src, dst, message, None)

    def multicast(self, src: int, dsts: Iterable[int], message: object) -> None:
        """Send the same message to every destination, in ``dsts`` order.

        Every destination is handled as by :meth:`send` (batcher, peer
        outbox, learned route, or local short-circuit for another endpoint
        registered here), except that the body is encoded once for all of
        them.  ``src`` among ``dsts`` is the sender's own copy of a
        broadcast: it takes the local short-circuit directly and is never
        held back for a flush tick.
        """
        batched = self.batcher is not None and is_batchable(message)
        body = None
        for dst in dsts:
            if batched and dst != src:
                self.send(src, dst, message)
                continue
            frame = self._route(src, dst, message, body)
            if body is None and frame is not None:
                body = frame_body(frame)

    # ------------------------------------------------------------- send path
    def _send_now(self, src: int, dst: int, message: object, size_bytes=None) -> None:
        """Immediate send path (the batcher's flush target)."""
        self._route(src, dst, message, None)

    def _route(
        self, src: int, dst: int, message: object, body: Optional[memoryview]
    ) -> Optional[bytes]:
        """Deliver locally or queue one frame for ``dst``.

        ``body`` is the message's encoded body if an earlier destination of
        the same multicast produced it.  Returns the frame queued, or
        ``None`` when nothing was encoded (local delivery or a drop).
        """
        if dst in self._handlers:
            # Local short-circuit; defer through the loop so delivery is
            # never reentrant inside the sending call, matching the
            # simulator's always-asynchronous delivery.
            self._loop.call_soon(self._dispatch, src, dst, message)
            self.stats.messages_sent += 1
            return None
        outbox = self._outboxes.get(dst)
        if outbox is not None:
            if len(outbox) >= PEER_QUEUE_DEPTH:
                self.stats.messages_dropped += 1
                return None
            link = self._links.get(dst)
        else:
            link = self._routes.get(dst)
            if link is None or link.transport.is_closing():
                self.stats.messages_dropped += 1
                return None
            outbox = link.outbox
        frame = encode_frame(src, dst, message, body=body)
        if not outbox and link is not None:
            self._mark(link)
        outbox.append(frame)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(frame)
        return frame

    def _mark(self, link: _Link) -> None:
        """Have this turn's flush write ``link``'s outbox."""
        if not self._dirty:
            self._loop.call_soon(self._flush)
        self._dirty.append(link)

    def _flush(self) -> None:
        """Write each marked link's outbox in one call.

        A paused link keeps its frames until ``resume_writing``, a closed
        static-peer link until the next connection to that peer.
        """
        dirty, self._dirty = self._dirty, []
        for link in dirty:
            outbox = link.outbox
            if outbox and not link.paused and not link.transport.is_closing():
                link.transport.write(b"".join(outbox))
                outbox.clear()

    # ---------------------------------------------------------- receive path
    def _dispatch(self, src: int, dst: int, message: object) -> None:
        """Hand one message (or each payload of a wire batch) to ``dst``."""
        handler = self._handlers.get(dst)
        if handler is None:
            self.stats.messages_dropped += 1
            return
        if type(message) is MessageBatchMsg:
            for payload in message.payloads:
                handler(src, payload)
        else:
            handler(src, message)

    # ------------------------------------------------------------ peer loops
    async def _connect_loop(self, peer_id: int) -> None:
        """Keep one outbound connection to a static peer.

        Connect (retrying while the peer is down), hand the link the outbox,
        and reconnect when the connection ends; frames already written to a
        dead connection are lost, which the protocols' retransmission absorbs.
        """
        host, port = self._peers[peer_id]
        outbox = self._outboxes[peer_id]
        while not self._closed:
            link = _Link(self, outbox, learn=False)
            try:
                await self._loop.create_connection(lambda: link, host, port)
            except OSError:
                await asyncio.sleep(self._reconnect_delay)
                continue
            self.stats.connects += 1
            self._links[peer_id] = link
            if outbox:
                self._mark(link)
            try:
                await link.lost
            finally:
                del self._links[peer_id]
