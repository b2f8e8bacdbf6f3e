"""The Manager module (Section 4.1): epochs, leadersets and segments.

The Manager owns the high-level log-partitioning logic: it evaluates the
leader-selection policy at every epoch transition, caps the leaderset so
that each segment keeps at least ``min_segment_size`` sequence numbers
(Table 1), rotates which nodes get dropped by that cap for fairness, and
builds the epoch's segment descriptors (sequence-number interleave plus
bucket assignment).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .config import ISSConfig
from .leader_policy import FailureHistory, LeaderSelectionPolicy, make_policy
from .log import Log
from .segment import (
    LAYOUT_ROUND_ROBIN,
    build_segments,
    epoch_seq_nrs,
    validate_epoch_partition,
)
from .types import EpochNr, NodeId, SegmentDescriptor


class EpochManager:
    """Computes, for every epoch, the leaderset and segment descriptors."""

    def __init__(
        self,
        config: ISSConfig,
        policy: Optional[LeaderSelectionPolicy] = None,
        layout: str = LAYOUT_ROUND_ROBIN,
        membership=None,
    ):
        self.config = config
        self.policy = policy if policy is not None else make_policy(config)
        self.layout = layout
        self.history = FailureHistory()
        #: Optional ``repro.core.membership.MembershipTracker``; when set,
        #: leadersets and segments are computed from the epoch's committed
        #: membership view instead of the static genesis configuration.
        self.membership = membership
        #: Segment descriptors of the last finished epoch onwards.
        self._segments: Dict[EpochNr, List[SegmentDescriptor]] = {}
        self._leaders: Dict[EpochNr, List[NodeId]] = {}

    # --------------------------------------------------------------- leaders
    def leaders_for(self, epoch: EpochNr) -> List[NodeId]:
        """The (possibly capped) leaderset of ``epoch``.

        The policy's leaderset is capped at ``epoch_length / min_segment_size``
        leaders; when the cap bites, the window of retained leaders rotates
        with the epoch number so that every policy-selected node still leads
        infinitely often (preserving the liveness argument of Section 3.4).
        """
        if epoch in self._leaders:
            return self._leaders[epoch]
        if self.membership is not None:
            view = self.membership.view_for(epoch)
            self.policy.set_membership(view.nodes, view.max_faulty)
            fallback = list(view.nodes)
        else:
            fallback = sorted(range(self.config.num_nodes))
        selected = self.policy.leaders(epoch, self.history)
        if not selected:
            selected = fallback
        cap = self.config.max_leaders()
        if len(selected) > cap:
            start = (epoch * cap) % len(selected)
            rotated = selected[start:] + selected[:start]
            selected = sorted(rotated[:cap])
        self._leaders[epoch] = selected
        return selected

    # -------------------------------------------------------------- segments
    def segments_for(self, epoch: EpochNr) -> List[SegmentDescriptor]:
        """Build (or return the cached) segment descriptors of ``epoch``."""
        if epoch in self._segments:
            return self._segments[epoch]
        leaders = self.leaders_for(epoch)
        active_nodes = (
            self.membership.view_for(epoch).nodes if self.membership is not None else None
        )
        segments = build_segments(
            epoch=epoch,
            leaders=leaders,
            num_nodes=self.config.num_nodes,
            epoch_length=self.config.epoch_length,
            num_buckets=self.config.num_buckets,
            layout=self.layout,
            active_nodes=active_nodes,
        )
        validate_epoch_partition(
            segments, epoch, self.config.epoch_length, self.config.num_buckets
        )
        self._segments[epoch] = segments
        return segments

    # ---------------------------------------------------------- epoch close
    def epoch_complete(self, epoch: EpochNr, log: Log) -> bool:
        """True when the log holds an entry for every position of ``epoch``."""
        return log.is_complete(epoch_seq_nrs(epoch, self.config.epoch_length))

    def finish_epoch(self, epoch: EpochNr, log: Log):
        """Fold the finished epoch into the failure history and the policy.

        Under dynamic membership this also *seals* the epoch: its committed
        ConfigTxs are folded into the next epoch's view.  Returns the
        ``(added, removed)`` node tuples of that activation (both empty when
        nothing changed), or ``None`` without a membership tracker.
        """
        segments = self.segments_for(epoch)
        self.history.record_epoch(epoch, segments, log)
        self.policy.epoch_finished(epoch, self.history)
        # Nothing asks for older descriptors again (they would be rebuilt).
        for old in [e for e in self._segments if e < epoch]:
            del self._segments[old]
        if self.membership is not None:
            return self.membership.seal_epoch(epoch)
        return None

    # ------------------------------------------------------------- reporting
    def proposal_interval(self, epoch: EpochNr) -> float:
        """Per-leader spacing implied by the deployment-wide batch rate."""
        if self.config.batch_rate is None:
            return 0.0
        leaders = self.leaders_for(epoch)
        return len(leaders) / self.config.batch_rate
