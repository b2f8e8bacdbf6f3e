"""Open-loop client workload generation (Section 6.1).

The paper drives the system with 16 client machines × 16 clients, each
submitting 500-byte requests independently; the submission rate is swept
upward until throughput saturates.  :class:`WorkloadGenerator` reproduces
that open-loop behaviour inside the simulator: each client submits requests
at its share of the aggregate rate with exponentially distributed
inter-arrival times (a Poisson process), bounded by its watermark window.

Each client has at most one arrival pending at a time: the generator holds
one timer per client and replaces it when the next arrival is drawn, so its
state does not grow with the number of requests a run submits.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Sequence

from ..core.client import Client
from ..core.config import WorkloadConfig
from ..sim.simulator import Simulator, Timer


class WorkloadGenerator:
    """Drives a set of clients with an open-loop Poisson arrival process.

    ``_timers`` maps a client's index to its one pending arrival; an entry
    is replaced when that arrival fires and draws the next, and dropped
    when the next would fall past ``workload.duration``.  :meth:`stop`
    cancels every pending arrival.
    """

    def __init__(
        self,
        clients: Sequence[Client],
        workload: WorkloadConfig,
        sim: Simulator,
        on_submit: Optional[Callable[[object, float], None]] = None,
    ):
        if not clients:
            raise ValueError("workload needs at least one client")
        workload.validate()
        self.clients = list(clients)
        self.workload = workload
        self.sim = sim
        self.on_submit = on_submit
        self._rng = random.Random(workload.random_seed)
        self._payload = bytes(workload.payload_size)
        self._per_client_rate = workload.total_rate / len(self.clients)
        self._timers: Dict[int, Timer] = {}
        self._stopped = False
        self.submitted = 0
        self.deferred = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Schedule the first arrival for every client."""
        for index in range(len(self.clients)):
            self._schedule_next(index)

    def stop(self) -> None:
        self._stopped = True
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    # ------------------------------------------------------------ arrivals
    def _next_interarrival(self) -> float:
        return self._rng.expovariate(self._per_client_rate)

    def _schedule_next(self, index: int) -> None:
        if self._stopped:
            return
        delay = self._next_interarrival()
        if self.sim.now + delay > self.workload.duration:
            self._timers.pop(index, None)
            return
        self._timers[index] = self.sim.schedule(delay, lambda i=index: self._submit(i))

    def _submit(self, index: int) -> None:
        if self._stopped:
            return
        client = self.clients[index]
        if client.outstanding_within_watermarks():
            request = client.submit(self._payload)
            self.submitted += 1
            if self.on_submit is not None:
                self.on_submit(request, self.sim.now)
        else:
            # The watermark window is full: the open-loop arrival is deferred
            # (counted so saturation is visible in reports).
            self.deferred += 1
        self._schedule_next(index)
