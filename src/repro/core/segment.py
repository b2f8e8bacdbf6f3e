"""Epoch and segment arithmetic (Sections 2.3 and 3.1).

The log is split into fixed-length *epochs*; each epoch's sequence numbers
are interleaved round-robin across that epoch's *segments*, one segment per
leader.  Round-robin interleaving (rather than contiguous blocks) minimises
"gaps" in the log during fault-free execution and therefore end-to-end
latency — an ablation benchmark compares both layouts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .types import BucketId, EpochNr, NodeId, SegmentDescriptor, SeqNr
from .buckets import assignment_for_epoch

#: Sequence-number layouts supported for the ablation study.
LAYOUT_ROUND_ROBIN = "round-robin"
LAYOUT_CONTIGUOUS = "contiguous"


def epoch_of(sn: SeqNr, epoch_length: int) -> EpochNr:
    """Epoch that sequence number ``sn`` belongs to."""
    if sn < 0:
        raise ValueError("sequence numbers are non-negative")
    return sn // epoch_length


def epoch_seq_nrs(epoch: EpochNr, epoch_length: int) -> range:
    """``Sn(e)``: the contiguous sequence numbers of ``epoch``."""
    start = epoch * epoch_length
    return range(start, start + epoch_length)


def epoch_first_sn(epoch: EpochNr, epoch_length: int) -> SeqNr:
    """First log sequence number belonging to ``epoch``."""
    return epoch * epoch_length


def epoch_last_sn(epoch: EpochNr, epoch_length: int) -> SeqNr:
    """Last log sequence number belonging to ``epoch`` (inclusive)."""
    return (epoch + 1) * epoch_length - 1


def segment_seq_nrs(
    epoch: EpochNr,
    leader_index: int,
    num_leaders: int,
    epoch_length: int,
    layout: str = LAYOUT_ROUND_ROBIN,
) -> Tuple[SeqNr, ...]:
    """``Seg(e, i)``: the sequence numbers of the ``leader_index``-th segment.

    ``round-robin`` (the paper's choice) assigns ``sn`` to segment
    ``sn mod num_leaders``; ``contiguous`` carves the epoch into consecutive
    blocks (used only by the ablation benchmark).
    """
    if not 0 <= leader_index < num_leaders:
        raise ValueError("leader_index out of range")
    sns = epoch_seq_nrs(epoch, epoch_length)
    if layout == LAYOUT_ROUND_ROBIN:
        return tuple(sn for sn in sns if sn % num_leaders == leader_index)
    if layout == LAYOUT_CONTIGUOUS:
        per_segment = epoch_length // num_leaders
        remainder = epoch_length % num_leaders
        # Earlier segments absorb the remainder one sequence number each so
        # the segment lengths differ by at most one, like round-robin.
        start_offset = leader_index * per_segment + min(leader_index, remainder)
        length = per_segment + (1 if leader_index < remainder else 0)
        start = sns.start + start_offset
        return tuple(range(start, start + length))
    raise ValueError(f"unknown layout {layout!r}")


def build_segments(
    epoch: EpochNr,
    leaders: Sequence[NodeId],
    num_nodes: int,
    epoch_length: int,
    num_buckets: int,
    layout: str = LAYOUT_ROUND_ROBIN,
    active_nodes: Optional[Sequence[NodeId]] = None,
) -> List[SegmentDescriptor]:
    """Create the segment descriptors of one epoch (Algorithm 3, initEpoch).

    ``leaders`` is the epoch's leaderset in the order produced by the leader
    selection policy; the ``l``-th leader owns the ``l``-th interleave of the
    epoch's sequence numbers and the buckets computed by
    :func:`repro.core.buckets.buckets_for_leader`.  ``active_nodes`` is the
    epoch's membership under dynamic reconfiguration (defaults to the
    genesis ``0..num_nodes-1``).
    """
    if not leaders:
        raise ValueError("an epoch needs at least one leader")
    if len(set(leaders)) != len(leaders):
        raise ValueError("leaders must be distinct")
    bucket_assignment: Dict[NodeId, List[BucketId]] = assignment_for_epoch(
        epoch, leaders, num_nodes, num_buckets, active_nodes=active_nodes
    )
    segments: List[SegmentDescriptor] = []
    for index, leader in enumerate(leaders):
        seq_nrs = segment_seq_nrs(epoch, index, len(leaders), epoch_length, layout)
        segments.append(
            SegmentDescriptor(
                epoch=epoch,
                leader=leader,
                seq_nrs=seq_nrs,
                buckets=tuple(bucket_assignment[leader]),
            )
        )
    return segments


def segment_of(sn: SeqNr, segments: Sequence[SegmentDescriptor]) -> SegmentDescriptor:
    """``segOf(sn)``: the segment containing ``sn`` among the given segments."""
    for segment in segments:
        if sn in segment.seq_nrs:
            return segment
    raise KeyError(f"sequence number {sn} not covered by any segment")


def validate_epoch_partition(
    segments: Sequence[SegmentDescriptor], epoch: EpochNr, epoch_length: int, num_buckets: int
) -> None:
    """Assert the two partition invariants ISS relies on.

    1. The segments' sequence numbers partition ``Sn(epoch)`` exactly.
    2. The segments' buckets partition the full bucket set exactly.

    Raises ``ValueError`` on violation; the manager checks every epoch's
    segments with it.
    """
    all_sns: List[SeqNr] = []
    all_buckets: List[BucketId] = []
    for segment in segments:
        all_sns.extend(segment.seq_nrs)
        all_buckets.extend(segment.buckets)
    expected_sns = list(epoch_seq_nrs(epoch, epoch_length))
    if sorted(all_sns) != expected_sns:
        raise ValueError("segments do not partition the epoch's sequence numbers")
    if sorted(all_buckets) != list(range(num_buckets)):
        raise ValueError("segments do not partition the bucket space")
