"""Single-shot Byzantine consensus (used by the reference SB construction).

Algorithm 5 in the paper builds Sequenced Broadcast from Byzantine reliable
broadcast plus one Byzantine consensus instance per sequence number.  This
module provides that consensus instance: a compact, view-based, eventually
synchronous protocol in the style of single-slot PBFT.

* Views rotate round-robin; the view leader proposes its current estimate.
* A node *prepares* a proposal after ``2f+1`` matching PREPARE votes and
  *commits* (decides) after ``2f+1`` matching COMMIT votes.
* On a view timeout, nodes exchange VIEW-CHANGE messages carrying their
  highest prepared value; the next leader must re-propose the highest
  prepared value it learned, which preserves agreement across views.

The implementation favours clarity over defending every Byzantine corner
case (e.g. view-change proofs are not re-validated cryptographically); ISS's
production path uses the full PBFT/HotStuff/Raft engines, while this class
backs the paper's modularity argument and the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.types import NodeId
from ..runtime.api import Scheduler, Timer
from ..runtime.wire import register_batchable

#: Sentinel used as the "could not agree on a proposed value" decision.
BOTTOM = "⊥"


def _value_key(value: object) -> object:
    digest_fn = getattr(value, "digest", None)
    if callable(digest_fn):
        return digest_fn()
    return value


@dataclass(frozen=True)
class BcPropose:
    """View leader's proposal of its current estimate (payload-carrying)."""

    instance: object
    view: int
    value: object

    def wire_size(self) -> int:
        from ..runtime.wire import wire_size

        return 48 + wire_size(self.value)


@register_batchable
@dataclass(frozen=True)
class BcPrepare:
    """First-phase consensus vote (digest-sized).  Batchable."""

    instance: object
    view: int
    value_key: object

    def wire_size(self) -> int:
        return 80


@register_batchable
@dataclass(frozen=True)
class BcCommit:
    """Second-phase consensus vote (digest-sized).  Batchable."""

    instance: object
    view: int
    value_key: object

    def wire_size(self) -> int:
        return 80


@dataclass(frozen=True)
class BcViewChange:
    """View-change vote carrying the sender's highest prepared value."""

    instance: object
    new_view: int
    prepared_view: int
    prepared_value: Optional[object]

    def wire_size(self) -> int:
        from ..runtime.wire import wire_size

        return 64 + (wire_size(self.prepared_value) if self.prepared_value is not None else 0)


class ByzantineConsensus:
    """One consensus instance over an arbitrary (hashable-by-digest) value."""

    def __init__(
        self,
        *,
        instance: object,
        node_id: NodeId,
        num_nodes: int,
        max_faulty: int,
        sim: Scheduler,
        broadcast_fn: Callable[[object], None],
        decide_fn: Callable[[object], None],
        view_timeout: float = 4.0,
    ):
        self.instance = instance
        self.node_id = node_id
        self.num_nodes = num_nodes
        self.max_faulty = max_faulty
        self.sim = sim
        self._broadcast = broadcast_fn
        self._decide = decide_fn
        self.view_timeout = view_timeout

        self.view = 0
        self.estimate: Optional[object] = None
        self.decided = False
        self.decision: Optional[object] = None

        self._prepared_view = -1
        self._prepared_value: Optional[object] = None
        self._values: Dict[object, object] = {}
        self._prepares: Dict[Tuple[int, object], Set[NodeId]] = {}
        self._commits: Dict[Tuple[int, object], Set[NodeId]] = {}
        self._view_changes: Dict[int, Dict[NodeId, BcViewChange]] = {}
        self._prepare_sent: Set[int] = set()
        self._commit_sent: Set[int] = set()
        self._proposed_views: Set[int] = set()
        self._timer: Optional[Timer] = None
        self._started = False

    # ------------------------------------------------------------- lifecycle
    def leader_of(self, view: int) -> NodeId:
        return view % self.num_nodes

    @property
    def quorum(self) -> int:
        return 2 * self.max_faulty + 1

    def propose(self, value: object) -> None:
        """BC-PROPOSE: adopt ``value`` as the initial estimate and start."""
        if self.decided:
            return
        if self.estimate is None:
            self.estimate = value
        if not self._started:
            self._started = True
            self._arm_timer()
        self._maybe_lead_view()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            # The timer holds a bound method of this instance.
            self._timer = None

    # -------------------------------------------------------------- leading
    def _maybe_lead_view(self) -> None:
        if self.decided or self.estimate is None:
            return
        if self.leader_of(self.view) != self.node_id:
            return
        if self.view in self._proposed_views:
            return
        self._proposed_views.add(self.view)
        value = self._prepared_value if self._prepared_value is not None else self.estimate
        self._broadcast(BcPropose(instance=self.instance, view=self.view, value=value))

    # ------------------------------------------------------------- handlers
    def handle_message(self, src: NodeId, message: object) -> None:
        if self.decided:
            return
        if isinstance(message, BcPropose):
            self._on_propose(src, message)
        elif isinstance(message, BcPrepare):
            self._on_prepare(src, message)
        elif isinstance(message, BcCommit):
            self._on_commit(src, message)
        elif isinstance(message, BcViewChange):
            self._on_view_change(src, message)

    def _on_propose(self, src: NodeId, message: BcPropose) -> None:
        if message.view != self.view or src != self.leader_of(message.view):
            return
        if message.view in self._prepare_sent:
            return
        key = _value_key(message.value)
        self._values[key] = message.value
        self._prepare_sent.add(message.view)
        self._broadcast(BcPrepare(instance=self.instance, view=message.view, value_key=key))

    def _on_prepare(self, src: NodeId, message: BcPrepare) -> None:
        voters = self._prepares.setdefault((message.view, message.value_key), set())
        voters.add(src)
        if len(voters) >= self.quorum and message.view not in self._commit_sent:
            self._commit_sent.add(message.view)
            self._prepared_view = message.view
            self._prepared_value = self._values.get(message.value_key, self._prepared_value)
            self._broadcast(
                BcCommit(instance=self.instance, view=message.view, value_key=message.value_key)
            )

    def _on_commit(self, src: NodeId, message: BcCommit) -> None:
        voters = self._commits.setdefault((message.view, message.value_key), set())
        voters.add(src)
        if len(voters) >= self.quorum and not self.decided:
            value = self._values.get(message.value_key)
            if value is None:
                # We have the votes but not the value yet; wait for the
                # proposal to arrive (it is retransmitted on view change).
                return
            self._finish(value)

    def _finish(self, value: object) -> None:
        self.decided = True
        self.decision = value
        if self._timer is not None:
            self._timer.cancel()
        self._decide(value)

    # ---------------------------------------------------------- view change
    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.sim.schedule(self.view_timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        if self.decided:
            return
        next_view = self.view + 1
        self._broadcast(
            BcViewChange(
                instance=self.instance,
                new_view=next_view,
                prepared_view=self._prepared_view,
                prepared_value=self._prepared_value,
            )
        )
        # Exponentially growing view timeout: guarantees termination after GST.
        self.view_timeout *= 2
        self._arm_timer()

    def _on_view_change(self, src: NodeId, message: BcViewChange) -> None:
        votes = self._view_changes.setdefault(message.new_view, {})
        votes[src] = message
        if message.new_view <= self.view:
            return
        if len(votes) >= self.quorum:
            # Adopt the highest prepared value reported by the quorum; this is
            # what preserves agreement across views.
            best = max(votes.values(), key=lambda m: m.prepared_view)
            if best.prepared_view >= 0 and best.prepared_value is not None:
                self._prepared_view = max(self._prepared_view, best.prepared_view)
                self._prepared_value = best.prepared_value
            self.view = message.new_view
            self._arm_timer()
            self._maybe_lead_view()
