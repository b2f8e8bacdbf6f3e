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

* **Static peers** (the replicas) are known up front.  Each transport owns
  one outbound connection per peer, fed by a bounded outbox and maintained
  by a reconnect loop — a crashed peer costs nothing but a periodic
  connection attempt, and frames queued while a peer is down are delivered
  after it returns (overflow drops the newest frame; the protocols'
  retransmission and client retries absorb loss, exactly the unreliable-
  channel contract :class:`~repro.runtime.api.Transport` documents).
* **Dynamic endpoints** (the clients) are learned from inbound traffic: a
  replica remembers which connection a client endpoint's frames arrived on
  and routes replies back over that same stream, so clients need no
  listening socket.
* **Local endpoints** short-circuit: a message to an endpoint registered
  on this transport is dispatched through the event loop without touching
  a socket or the codec (a node messaging itself, or in-process tests).

Per-message cost is the point of the send and receive paths.  A multicast
encodes its body once and reuses it for every destination (only the header
differs).  Frames bound for one connection during one event-loop turn leave
in a single write, and the reader decodes every complete frame of each
chunk it reads rather than awaiting each frame separately.

Wire batching is the same transport-independent layer the simulator uses:
with ``batch_flush_interval > 0`` a :class:`~repro.runtime.wire.
MessageBatcher` coalesces batchable messages per (src, dst, flush tick)
into one frame, and the receive path unpacks
:class:`~repro.runtime.wire.MessageBatchMsg` frames payload by payload.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, List, Optional, Tuple

from ..runtime.api import MessageHandler
from ..runtime.codec import FRAME_HEADER, CodecError, decode, encode_into
from ..runtime.wire import MessageBatcher, MessageBatchMsg, is_batchable, wire_size

#: Refuse frames beyond this (a corrupted length prefix must not OOM us).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Per-peer outbox depth in frames; overflow drops the newest frame.
PEER_QUEUE_DEPTH = 4096

#: Bytes asked of the stream per read (asyncio's default stream buffer
#: limit); every complete frame in them is decoded before the next read.
READ_CHUNK_BYTES = 64 * 1024


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

    __slots__ = (
        "messages_sent",
        "bytes_sent",
        "messages_dropped",
        "frames_received",
        "frames_rejected",
        "connects",
    )

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
        self._clock = clock
        self._loop = clock._loop
        self._peers = dict(peers)
        self._listen = listen
        self._reconnect_delay = reconnect_delay
        self._handlers: Dict[int, MessageHandler] = {}
        #: Frames waiting for each static peer's writer loop, and the event
        #: that wakes it (set when an outbox goes from empty to non-empty).
        self._outboxes: Dict[int, List[bytes]] = {}
        self._wakeups: Dict[int, asyncio.Event] = {}
        #: Learned client routes, and the frames bound for each route's
        #: stream this loop turn (written by one :meth:`_flush_routes`).
        self._routes: Dict[int, asyncio.StreamWriter] = {}
        self._route_frames: Dict[asyncio.StreamWriter, List[bytes]] = {}
        self._tasks: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False
        self.stats = TransportStats()
        #: Cross-protocol wire batching (same layer the simulator uses).
        self.batcher: Optional[MessageBatcher] = None
        if batch_flush_interval > 0:
            self.batcher = MessageBatcher(
                clock, batch_flush_interval, self._send_now
            )

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the server (if any) and start the per-peer writer loops."""
        if self._listen is not None:
            host, port = self._listen
            self._server = await asyncio.start_server(
                self._on_inbound_connection, host, port
            )
        for peer_id in self._peers:
            self._outboxes[peer_id] = []
            self._wakeups[peer_id] = asyncio.Event()
            self._tasks.append(
                self._loop.create_task(self._peer_writer(peer_id))
            )

    async def close(self) -> None:
        """Stop accepting, cancel the writer loops, close every stream."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for writer in list(self._routes.values()):
            writer.close()
        self._routes.clear()
        self._route_frames.clear()

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
    def _send_now(
        self, src: int, dst: int, message: object, size_bytes: Optional[int] = None
    ) -> None:
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
            frame = encode_frame(src, dst, message, body=body)
            if not outbox:
                self._wakeups[dst].set()
            outbox.append(frame)
        else:
            writer = self._routes.get(dst)
            if writer is None or writer.is_closing():
                self.stats.messages_dropped += 1
                return None
            frame = encode_frame(src, dst, message, body=body)
            pending = self._route_frames.get(writer)
            if pending is None:
                if not self._route_frames:
                    self._loop.call_soon(self._flush_routes)
                self._route_frames[writer] = [frame]
            else:
                pending.append(frame)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(frame)
        return frame

    def _flush_routes(self) -> None:
        """Write this turn's frames to each learned route in one call."""
        batches, self._route_frames = self._route_frames, {}
        for writer, frames in batches.items():
            if not writer.is_closing():
                writer.write(b"".join(frames))

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

    async def _on_inbound_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Server side: read frames, learning reply routes for clients."""
        try:
            await self._read_frames(reader, writer, learn_routes=True)
        except asyncio.CancelledError:
            # Server shutdown cancels accept-side tasks; that is a clean
            # exit, not an error to surface through the loop's handler.
            pass

    async def _read_frames(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        learn_routes: bool,
    ) -> None:
        """Frame-decode loop shared by inbound and outbound connections.

        Each read takes whatever the socket has (up to
        :data:`READ_CHUNK_BYTES`) and dispatches every complete frame in
        it; the rest of a frame longer than a chunk is taken with one exact
        read.  An oversize or undecodable frame ends the connection.
        """
        header_size = FRAME_HEADER.size
        unpack_header = FRAME_HEADER.unpack_from
        stats = self.stats
        buffer = b""
        try:
            while True:
                pos, size = 0, len(buffer)
                while size - pos >= header_size:
                    length, src, dst = unpack_header(buffer, pos)
                    if length > MAX_FRAME_BYTES:
                        stats.frames_rejected += 1
                        return
                    end = pos + header_size + length
                    if end > size:
                        break
                    try:
                        message = decode(buffer, pos + header_size, end)
                    except CodecError:
                        stats.frames_rejected += 1
                        return
                    stats.frames_received += 1
                    if learn_routes and src not in self._peers:
                        # A dynamic (client) endpoint: replies go back over
                        # the stream its traffic arrived on.
                        self._routes[src] = writer
                    self._dispatch(src, dst, message)
                    pos = end
                buffer = buffer[pos:]
                if len(buffer) >= header_size:
                    missing = header_size + unpack_header(buffer)[0] - len(buffer)
                    if missing > READ_CHUNK_BYTES:
                        buffer += await reader.readexactly(missing)
                        continue
                chunk = await reader.read(READ_CHUNK_BYTES)
                if not chunk:
                    return
                buffer = buffer + chunk if buffer else chunk
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            if learn_routes:
                stale = [ep for ep, w in self._routes.items() if w is writer]
                for endpoint in stale:
                    del self._routes[endpoint]
            writer.close()

    # ------------------------------------------------------------ peer loops
    async def _peer_writer(self, peer_id: int) -> None:
        """Maintain the outbound connection to one static peer.

        Connect (retrying forever while the peer is down), then drain the
        peer's outbox into the socket, everything queued since the last
        write in one write; a connection error drops back to the reconnect
        loop, losing at most the frames of the write in flight.  The paired
        reader task consumes whatever the peer sends back over this stream
        (client transports receive their responses here).
        """
        wakeup = self._wakeups[peer_id]
        host, port = self._peers[peer_id]
        while not self._closed:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                await asyncio.sleep(self._reconnect_delay)
                continue
            self.stats.connects += 1
            reader_task = self._loop.create_task(
                self._read_frames(reader, writer, learn_routes=False)
            )
            try:
                while True:
                    frames = self._outboxes[peer_id]
                    if not frames:
                        wakeup.clear()
                        await wakeup.wait()
                        continue
                    self._outboxes[peer_id] = []
                    writer.write(b"".join(frames))
                    await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                reader_task.cancel()
                writer.close()
