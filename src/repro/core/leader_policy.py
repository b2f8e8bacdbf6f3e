"""Leader-selection policies (Section 3.4, Algorithm 4).

A policy deterministically maps an epoch number plus the publicly known
history of the log (which segment leaders produced ``⊥`` entries) to the
epoch's leaderset.  Because every correct node reaches the same log for
every finished epoch (SMR Agreement + SB Termination), all correct nodes
compute identical leadersets without any extra communication — this is the
property that lets ISS drop Mir-BFT's epoch primary.

Three policies from the paper are implemented:

* ``SIMPLE``    — all nodes lead every epoch.
* ``BACKOFF``   — suspected nodes are banned for an exponentially growing,
                  linearly decaying number of epochs.
* ``BLACKLIST`` — the ``f`` most recently failed nodes are excluded
                  (the paper's default).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

from .config import ISSConfig, POLICY_BACKOFF, POLICY_BLACKLIST, POLICY_SIMPLE
from .log import Log
from .types import EpochNr, NodeId, SegmentDescriptor, SeqNr


class FailureHistory:
    """Record of which segment leaders failed to fill which log positions.

    ISS extracts leader-failure information from the log itself: a ``⊥``
    entry at a position belonging to leader ``n``'s segment means ``n`` was
    suspected while leading that position (Algorithm 4, ``lastFailure``).
    The history is updated once per finished epoch from the epoch's segments
    and the node's log, and is identical at all correct nodes.
    """

    def __init__(self) -> None:
        #: Highest ``⊥`` position attributed to each node, -1 if none.
        self._last_failure: Dict[NodeId, SeqNr] = {}
        #: Epoch in which each node last produced a ``⊥`` entry, -1 if none.
        self._last_failure_epoch: Dict[NodeId, EpochNr] = {}

    def record_epoch(
        self, epoch: EpochNr, segments: Sequence[SegmentDescriptor], log: Log
    ) -> None:
        """Fold one finished epoch into the history."""
        for segment in segments:
            for sn in segment.seq_nrs:
                if log.holds_nil(sn):
                    previous = self._last_failure.get(segment.leader, -1)
                    if sn > previous:
                        self._last_failure[segment.leader] = sn
                        self._last_failure_epoch[segment.leader] = epoch

    def last_failure(self, node: NodeId) -> SeqNr:
        """Highest sequence number ``node`` failed to deliver, -1 if none."""
        return self._last_failure.get(node, -1)

    def failed_in_epoch(self, node: NodeId, epoch: EpochNr) -> bool:
        """``suspect(n, e)``: did ``node`` produce a ``⊥`` entry in ``epoch``?"""
        return self._last_failure_epoch.get(node, -1) == epoch

    def snapshot(self) -> Dict[NodeId, SeqNr]:
        return dict(self._last_failure)


class LeaderSelectionPolicy(ABC):
    """Deterministic leaderset selection for each epoch."""

    def __init__(self, num_nodes: int, max_faulty: int):
        self.num_nodes = num_nodes
        self.max_faulty = max_faulty
        self.all_nodes: List[NodeId] = list(range(num_nodes))

    def set_membership(self, nodes: Sequence[NodeId], max_faulty: int) -> None:
        """Adopt an epoch's membership view (dynamic reconfiguration).

        Called by the epoch manager before computing every epoch's
        leaderset (the genesis view in a static deployment).  Deterministic at
        every node because the view itself is derived from the committed
        log.  Stateful policies override to initialise per-node state for
        joining replicas.
        """
        self.all_nodes = sorted(nodes)
        self.num_nodes = len(self.all_nodes)
        self.max_faulty = max_faulty

    @abstractmethod
    def leaders(self, epoch: EpochNr, history: FailureHistory) -> List[NodeId]:
        """Leaderset for ``epoch`` given the failure history up to ``epoch``."""

    def epoch_finished(self, epoch: EpochNr, history: FailureHistory) -> None:
        """Hook called once per finished epoch; stateful policies override."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short policy name used in reports."""


class SimplePolicy(LeaderSelectionPolicy):
    """All nodes lead every epoch (maximum resource usage, worst fault latency)."""

    @property
    def name(self) -> str:
        return POLICY_SIMPLE

    def leaders(self, epoch: EpochNr, history: FailureHistory) -> List[NodeId]:
        return sorted(self.all_nodes)


class BlacklistPolicy(LeaderSelectionPolicy):
    """Exclude the up-to-``f`` most recently failed nodes (the default).

    Nodes that never failed are never excluded, so the leaderset always
    contains at least ``2f+1`` nodes and therefore at least ``f+1`` correct
    ones.
    """

    @property
    def name(self) -> str:
        return POLICY_BLACKLIST

    def leaders(self, epoch: EpochNr, history: FailureHistory) -> List[NodeId]:
        failures = {node: history.last_failure(node) for node in self.all_nodes}
        offenders = sorted(
            (node for node, sn in failures.items() if sn >= 0),
            key=lambda node: failures[node],
            reverse=True,
        )
        blacklist = set(offenders[: self.max_faulty])
        return sorted(node for node in self.all_nodes if node not in blacklist)


class BackoffPolicy(LeaderSelectionPolicy):
    """Ban suspected nodes for an exponentially growing number of epochs.

    The ban doubles on every new suspicion and decreases linearly (by one
    epoch per well-behaved epoch) once the node is re-included.  If every
    node is banned simultaneously the policy falls back to the full node set
    for that epoch — the paper "skips" such epochs, which in a simulation
    without external time would spin; using all nodes preserves liveness and
    is documented here as a deliberate deviation.
    """

    def __init__(self, num_nodes: int, max_faulty: int, ban_period: int = 4):
        super().__init__(num_nodes, max_faulty)
        self.ban_period = ban_period
        self._penalty: Dict[NodeId, int] = {node: 0 for node in self.all_nodes}

    @property
    def name(self) -> str:
        return POLICY_BACKOFF

    def set_membership(self, nodes: Sequence[NodeId], max_faulty: int) -> None:
        super().set_membership(nodes, max_faulty)
        # Joining replicas start unpenalised; leavers keep their counter in
        # case they are re-added later (the ban history is log-derived and
        # thus identical at every node either way).
        for node in self.all_nodes:
            self._penalty.setdefault(node, 0)

    def leaders(self, epoch: EpochNr, history: FailureHistory) -> List[NodeId]:
        allowed = sorted(node for node in self.all_nodes if self._penalty[node] <= 0)
        if not allowed:
            return sorted(self.all_nodes)
        return allowed

    def epoch_finished(self, epoch: EpochNr, history: FailureHistory) -> None:
        for node in self.all_nodes:
            if history.failed_in_epoch(node, epoch):
                if self._penalty[node] > 0:
                    self._penalty[node] = self._penalty[node] * 2 - 1
                else:
                    self._penalty[node] = self.ban_period
            elif self._penalty[node] > 0:
                self._penalty[node] -= 1

    def penalty_of(self, node: NodeId) -> int:
        """Current ban counter of a node (test/inspection helper)."""
        return self._penalty[node]


def make_policy(config: ISSConfig) -> LeaderSelectionPolicy:
    """Instantiate the policy named in ``config.leader_policy``."""
    if config.leader_policy == POLICY_SIMPLE:
        return SimplePolicy(config.num_nodes, config.max_faulty)
    if config.leader_policy == POLICY_BLACKLIST:
        return BlacklistPolicy(config.num_nodes, config.max_faulty)
    if config.leader_policy == POLICY_BACKOFF:
        return BackoffPolicy(config.num_nodes, config.max_faulty)
    raise ValueError(f"unknown leader policy {config.leader_policy!r}")
