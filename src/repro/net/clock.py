"""Wall-clock implementation of the :class:`~repro.runtime.api.Scheduler`.

The protocols schedule everything — batch cutting, view-change timeouts,
heartbeats, client retries — through the five-method scheduler surface.
:class:`WallClock` implements it over a running asyncio event loop: ``now``
is seconds since the clock was created (so timestamps look like the
simulator's virtual times, starting near zero), ``schedule``/``schedule_at``
return cancellable/reschedulable :class:`WallTimer` handles, and the
fire-and-forget callback variants return nothing; both are backed by
``loop.call_at``.

A callback that is already due when it is scheduled (zero delay, a past
time, :meth:`WallClock.call_soon`) goes to ``loop.call_soon`` instead, so it
runs at the start of the next loop turn, ahead of the input that turn
reads.  That is the simulator's order, where an event due now precedes
every later arrival; on asyncio's timer path it would wait until that
input is handled, and a leader's first proposal of an epoch, scheduled
while the epoch's checkpoint traffic streams in, would slip by as long as
that traffic takes to process.

Unlike the simulator there is no determinism here — real time does what it
does — but the *interface* semantics match: callbacks run on the loop
thread, never reentrantly inside the call that scheduled them, and
``events_executed`` counts fired callbacks for parity with the simulator's
profiling counter.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Optional


class WallTimer:
    """Cancellable, reschedulable handle for one wall-clock callback."""

    __slots__ = ("_clock", "_callback", "_handle", "_fire_time", "_fired")

    def __init__(self, clock: "WallClock", fire_time: float, callback: Callable[[], None]):
        self._clock = clock
        self._callback = callback
        self._fired = False
        self._arm(fire_time)

    def _arm(self, fire_time: float) -> None:
        self._fire_time = fire_time
        clock = self._clock
        if fire_time <= clock.now:
            self._handle = clock._loop.call_soon(self._run)
        else:
            self._handle = clock._loop.call_at(clock._t0 + fire_time, self._run)

    def _run(self) -> None:
        self._fired = True
        self._clock.events_executed += 1
        self._callback()

    @property
    def fire_time(self) -> float:
        """Absolute clock time (seconds since clock start) of the firing."""
        return self._fire_time

    @property
    def active(self) -> bool:
        """True while the callback is still going to run."""
        return not self._fired and not self._handle.cancelled()

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self._handle.cancel()

    def reset(self, delay: float) -> "WallTimer":
        """Cancel and re-arm the same callback ``delay`` seconds from now."""
        self._handle.cancel()
        self._fired = False
        self._arm(self._clock.now + delay)
        return self


class WallClock:
    """The scheduler surface over an asyncio event loop and real seconds.

    Must be constructed on the loop it will schedule against (the node
    host and the client drivers create it inside their ``async`` entry
    points).  ``seed`` feeds the ``rng`` the protocols draw jitter from;
    each process seeds it differently so backoff jitter decorrelates
    across nodes, exactly as independent machines would.
    """

    def __init__(self, seed: int = 0, loop: Optional[asyncio.AbstractEventLoop] = None):
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self.rng = random.Random(seed)
        #: Callbacks fired so far (parity with ``Simulator.events_executed``).
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Seconds since this clock was created (monotonic)."""
        return self._loop.time() - self._t0

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[[], None]) -> WallTimer:
        """Run ``callback`` once, ``delay`` seconds from now; returns a handle."""
        return WallTimer(self, self.now + max(0.0, delay), callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> WallTimer:
        """Absolute-time variant of :meth:`schedule` (past times fire ASAP)."""
        return WallTimer(self, max(time, self.now), callback)

    def call_soon(self, callback: Callable[[], None]) -> WallTimer:
        """Run ``callback`` on the next loop iteration; returns a handle."""
        return WallTimer(self, self.now, callback)

    def schedule_callback(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget fast path: no handle, not cancellable."""
        self.schedule_callback_at(self.now + delay, callback)

    def schedule_callback_at(self, time: float, callback: Callable[[], None]) -> None:
        """Absolute-time variant of :meth:`schedule_callback`."""
        if time <= self.now:
            self._loop.call_soon(self._run_plain, callback)
        else:
            self._loop.call_at(self._t0 + time, self._run_plain, callback)

    def _run_plain(self, callback: Callable[[], None]) -> None:
        self.events_executed += 1
        callback()
