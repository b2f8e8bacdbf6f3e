"""TCP implementation of the :class:`~repro.runtime.api.Transport`.

Wire format: each message is one frame — a 4-byte big-endian payload
length followed by the pickle of ``(src, dst, message)``.  The message
objects are the exact protocol dataclasses the simulator's network carries
by reference; pickling them *is* the serialization layer (they are all
plain frozen dataclasses of ints, bytes and tuples).

Connection model, mirroring how real SMR deployments wire up:

* **Static peers** (the replicas) are known up front.  Each transport owns
  one outbound connection per peer, fed by a bounded queue and maintained
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
  a socket (a node messaging itself, or in-process tests).

Wire batching is the same transport-independent layer the simulator uses:
with ``batch_flush_interval > 0`` a :class:`~repro.runtime.wire.
MessageBatcher` coalesces batchable messages per (src, dst, flush tick)
into one frame, and the receive path unpacks
:class:`~repro.runtime.wire.MessageBatchMsg` frames payload by payload.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Dict, Iterable, List, Optional, Tuple

from ..runtime.api import MessageHandler
from ..runtime.wire import MessageBatcher, MessageBatchMsg, is_batchable, wire_size

#: Frame header: big-endian payload length.
_FRAME_HEADER = struct.Struct(">I")

#: Refuse frames beyond this (a corrupted length prefix must not OOM us).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Per-peer outbound queue depth; overflow drops the newest frame.
PEER_QUEUE_DEPTH = 4096


def encode_frame(src: int, dst: int, message: object) -> bytes:
    """Serialise one ``(src, dst, message)`` triple into a wire frame."""
    payload = pickle.dumps((src, dst, message), protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload)) + payload


class TransportStats:
    """Counters describing what the transport did (tests and reports)."""

    __slots__ = (
        "messages_sent",
        "bytes_sent",
        "messages_dropped",
        "frames_received",
        "connects",
    )

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Sends with no route: unknown endpoint, dead learned route, or a
        #: full peer queue.
        self.messages_dropped = 0
        self.frames_received = 0
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
        self._queues: Dict[int, asyncio.Queue] = {}
        self._routes: Dict[int, asyncio.StreamWriter] = {}
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
            self._queues[peer_id] = asyncio.Queue(maxsize=PEER_QUEUE_DEPTH)
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
        self._send_now(src, dst, message, size_bytes)

    def multicast(self, src: int, dsts: Iterable[int], message: object) -> None:
        """Send the same message to every destination, in ``dsts`` order.

        Every destination goes through :meth:`send` (batcher, peer queue,
        learned route, or local short-circuit for another endpoint
        registered here).  ``src`` among ``dsts`` is the sender's own copy
        of a broadcast: it takes the local short-circuit directly and is
        never held back for a flush tick.
        """
        for dst in dsts:
            if dst == src:
                self._send_now(src, dst, message)
            else:
                self.send(src, dst, message)

    # ------------------------------------------------------------- send path
    def _send_now(
        self, src: int, dst: int, message: object, size_bytes: Optional[int] = None
    ) -> None:
        """Immediate send path (also the batcher's flush target)."""
        if dst in self._handlers:
            # Local short-circuit; defer through the loop so delivery is
            # never reentrant inside the sending call, matching the
            # simulator's always-asynchronous delivery.
            self._loop.call_soon(self._dispatch, src, dst, message)
            self.stats.messages_sent += 1
            return
        frame = encode_frame(src, dst, message)
        queue = self._queues.get(dst)
        if queue is not None:
            try:
                queue.put_nowait(frame)
            except asyncio.QueueFull:
                self.stats.messages_dropped += 1
                return
        else:
            writer = self._routes.get(dst)
            if writer is None or writer.is_closing():
                self.stats.messages_dropped += 1
                return
            writer.write(frame)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(frame)

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
        """Frame-decode loop shared by inbound and outbound connections."""
        try:
            while True:
                header = await reader.readexactly(_FRAME_HEADER.size)
                (length,) = _FRAME_HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    break
                payload = await reader.readexactly(length)
                try:
                    src, dst, message = pickle.loads(payload)
                except Exception:
                    break
                self.stats.frames_received += 1
                if learn_routes and src not in self._peers:
                    # A dynamic (client) endpoint: replies go back over the
                    # stream its traffic arrived on.
                    self._routes[src] = writer
                self._dispatch(src, dst, message)
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
        peer's queue into the socket; a connection error drops back to the
        reconnect loop, losing at most the frame in flight.  The paired
        reader task consumes whatever the peer sends back over this stream
        (client transports receive their responses here).
        """
        queue = self._queues[peer_id]
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
                    frame = await queue.get()
                    writer.write(frame)
                    await writer.drain()
            except (ConnectionError, OSError):
                pass
            except asyncio.CancelledError:
                reader_task.cancel()
                writer.close()
                raise
            finally:
                reader_task.cancel()
                writer.close()
