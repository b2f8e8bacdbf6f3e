"""The narrow environment interface ISS protocols run against.

Every protocol module (the ISS node, its SB implementations, the failure
detector, clients) talks to its environment exclusively through three small
duck-typed surfaces:

* :class:`Scheduler` — a clock plus one-shot callback scheduling.  The
  discrete-event :class:`~repro.sim.simulator.Simulator` implements it over
  virtual time; :class:`~repro.net.clock.WallClock` implements it over an
  asyncio event loop and real seconds.
* :class:`Timer` — the cancellable/reschedulable handle :meth:`Scheduler.
  schedule` returns (protocol timeouts, pacers, heartbeats).
* :class:`Transport` — endpoint registration plus point-to-point send.
  The simulator's :class:`~repro.sim.network.Network` models NIC/latency;
  :class:`~repro.net.transport.TcpTransport` moves real bytes over TCP.

These are :class:`typing.Protocol` classes: backends satisfy them
structurally, nothing subclasses anything, and — crucially for the layering
contract enforced by ``tests/test_layering.py`` — protocol code can annotate
against them without importing any backend package.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Protocol, runtime_checkable


@runtime_checkable
class Timer(Protocol):
    """Handle for a scheduled callback; cancellable and reschedulable."""

    @property
    def fire_time(self) -> float:
        """Absolute time (scheduler clock) at which the callback fires."""
        ...

    @property
    def active(self) -> bool:
        """True while the callback is still going to run."""
        ...

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        ...

    def reset(self, delay: float) -> "Timer":
        """Cancel and re-arm the same callback ``delay`` from now."""
        ...


@runtime_checkable
class Scheduler(Protocol):
    """A clock plus one-shot callback scheduling (the node's event loop).

    ``rng`` is part of the surface because protocol code draws jitter and
    backoff randomness from the environment's seeded source — the simulator
    pins it for determinism, the wall-clock backend seeds it per process.
    """

    rng: Any

    @property
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock)."""
        ...

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` once, ``delay`` seconds from now; returns a handle."""
        ...

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Absolute-time variant of :meth:`schedule`."""
        ...

    def call_soon(self, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` as soon as possible (after pending work)."""
        ...

    def schedule_callback(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget fast path: no handle, not cancellable."""
        ...

    def schedule_callback_at(self, time: float, callback: Callable[[], None]) -> None:
        """Absolute-time variant of :meth:`schedule_callback`."""
        ...


#: A message handler registered by an endpoint: ``handler(src, message)``.
MessageHandler = Callable[[int, object], None]


@runtime_checkable
class Transport(Protocol):
    """Point-to-point authenticated-channel message transport.

    Endpoints are integers: node ids, plus client endpoints offset by
    :data:`~repro.core.messages.CLIENT_ENDPOINT_OFFSET`.  ``send`` returns
    immediately; delivery is asynchronous and may silently fail (crashed
    peer, partition, connection loss) — exactly the unreliable-channel
    contract the protocols are built to tolerate.
    """

    def register(self, endpoint: int, handler: MessageHandler) -> None:
        """Attach ``handler`` for messages addressed to ``endpoint``."""
        ...

    def unregister(self, endpoint: int) -> None:
        """Detach ``endpoint``'s handler; undelivered messages drop."""
        ...

    def send(
        self,
        src: int,
        dst: int,
        message: object,
        size_bytes: Optional[int] = None,
    ) -> None:
        """Send ``message`` from ``src`` to ``dst`` (fire and forget)."""
        ...

    def multicast(self, src: int, dsts: Iterable[int], message: object) -> None:
        """Send the same message to every destination, in ``dsts`` order.

        Equivalent to one :meth:`send` per destination, except that the
        transport may do per-message work (sizing, batchability) once.
        ``src`` itself may appear in ``dsts``: that entry is the sender's
        own copy of a broadcast and short-circuits — it is handed to
        ``src``'s handler asynchronously, at its position in the order,
        without wire cost, batching delay or fault injection.
        """
        ...


@runtime_checkable
class FaultNotifier(Protocol):
    """The two callbacks an ISS node owes a fault injector, if it has one.

    Kept as a protocol so ``core/iss.py`` can accept the simulator's
    :class:`~repro.sim.faults.FaultInjector` without importing it; a live
    deployment simply passes ``None``.
    """

    def notify_epoch_start(self, node: int, epoch: int) -> None:
        """The node entered ``epoch`` (epoch-start crash triggers)."""
        ...

    def notify_last_proposal(self, node: int, epoch: int) -> bool:
        """About to cut the segment's last batch; True = crash instead."""
        ...
