"""Eventually strong failure detector ◇S(bz) (Sections 2.2 and 5.1.3).

Each node periodically broadcasts a heartbeat; a peer that stays silent past
an (adaptively doubling) timeout is *suspected*, and *restored* when a
heartbeat from it arrives again.  Under partial synchrony the timeout
eventually exceeds the network delay, giving the two ◇S(bz) properties:

* **Strong completeness** — a quiet node is eventually suspected forever by
  every correct node (it stops producing heartbeats, so its timer keeps
  firing).
* **Eventual weak accuracy** — after GST some correct node's heartbeats
  always arrive before the (by then long enough) timeout, so it is never
  suspected again.

The detector only reacts to the *absence* of messages, matching the paper's
notion of quiet nodes: Byzantine nodes that keep talking are not suspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set

from ..core.types import NodeId
from ..runtime.api import Scheduler, Timer

#: Event kinds passed to subscribers.
EVENT_SUSPECT = "suspect"
EVENT_RESTORE = "restore"

#: Subscriber signature: ``fn(event, node)``.
FDSubscriber = Callable[[str, NodeId], None]


@dataclass(frozen=True)
class HeartbeatMsg:
    """Periodic liveness beacon; content-free beyond the sender identity."""

    sender: NodeId

    def wire_size(self) -> int:
        return 16


class FailureDetector:
    """Heartbeat/timeout implementation of the ◇S(bz) failure detector."""

    def __init__(
        self,
        node_id: NodeId,
        all_nodes: Iterable[NodeId],
        sim: Scheduler,
        broadcast_fn: Callable[[object], None],
        heartbeat_interval: float = 1.0,
        initial_timeout: float = 4.0,
        max_timeout: float = 120.0,
    ):
        self.node_id = node_id
        self.all_nodes: List[NodeId] = [n for n in all_nodes]
        self.sim = sim
        self._broadcast = broadcast_fn
        self.heartbeat_interval = heartbeat_interval
        self.initial_timeout = initial_timeout
        self.max_timeout = max_timeout

        #: ``D.suspected``: the current list of suspects.
        self.suspected: Set[NodeId] = set()
        self._timeout: Dict[NodeId, float] = {
            n: initial_timeout for n in self.all_nodes if n != node_id
        }
        self._timers: Dict[NodeId, Timer] = {}
        self._heartbeat_timer: Optional[Timer] = None
        self._subscribers: List[FDSubscriber] = []
        self._running = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin emitting heartbeats and watching peers."""
        if self._running:
            return
        self._running = True
        self._emit_heartbeat()
        for peer in self._timeout:
            self._arm_timer(peer)

    def stop(self) -> None:
        self._running = False
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    def subscribe(self, callback: FDSubscriber) -> None:
        """Register for ⟨SUSPECT⟩ / ⟨RESTORE⟩ events."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: FDSubscriber) -> None:
        """Stop delivering events to ``callback`` (no-op if not subscribed)."""
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    # ----------------------------------------------------------- heartbeats
    def _emit_heartbeat(self) -> None:
        if not self._running:
            return
        self._broadcast(HeartbeatMsg(sender=self.node_id))
        self._heartbeat_timer = self.sim.schedule(self.heartbeat_interval, self._emit_heartbeat)

    def handle_message(self, src: NodeId, message: object) -> None:
        """Feed an incoming heartbeat into the detector."""
        if isinstance(message, HeartbeatMsg) and message.sender == src:
            self.note_alive(src)

    def note_alive(self, peer: NodeId) -> None:
        """Evidence that ``peer`` is alive (heartbeat or any protocol message)."""
        if peer == self.node_id or peer not in self._timeout:
            return
        if peer in self.suspected:
            self.suspected.discard(peer)
            self._notify(EVENT_RESTORE, peer)
        self._arm_timer(peer)

    # --------------------------------------------------------------- timers
    def _arm_timer(self, peer: NodeId) -> None:
        if not self._running:
            return
        existing = self._timers.get(peer)
        if existing is not None:
            existing.cancel()
        self._timers[peer] = self.sim.schedule(
            self._timeout[peer], lambda peer=peer: self._on_timeout(peer)
        )

    def _on_timeout(self, peer: NodeId) -> None:
        if not self._running:
            return
        if peer not in self.suspected:
            self.suspected.add(peer)
            self._notify(EVENT_SUSPECT, peer)
        # Double the timeout so that, after GST, correct peers stop being
        # suspected (eventual weak accuracy).
        self._timeout[peer] = min(self.max_timeout, self._timeout[peer] * 2)
        self._arm_timer(peer)

    def _notify(self, event: str, peer: NodeId) -> None:
        for callback in list(self._subscribers):
            callback(event, peer)

    # -------------------------------------------------------------- queries
    def is_suspected(self, peer: NodeId) -> bool:
        return peer in self.suspected

    def current_timeout(self, peer: NodeId) -> float:
        return self._timeout.get(peer, self.initial_timeout)
