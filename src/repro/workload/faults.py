"""Fault-schedule builders for the evaluation scenarios (Section 6.4).

Thin convenience layer over the fault *specifications* in
:mod:`repro.runtime.faults`: this module builds the particular schedules
the paper's figures use.  Every builder returns a list, and a run's
``Deployment(faults=...)`` is the concatenation of as many as it needs.
"""

from __future__ import annotations

from typing import List, Sequence

from ..runtime.faults import (
    BYZ_EQUIVOCATE,
    CLIENT_FORGED_SIGNATURE,
    CLIENT_WATERMARK_ABUSE,
    CRASH_EPOCH_END,
    CRASH_EPOCH_START,
    MEMBER_ADD,
    MEMBER_EVICT_DETECTED,
    MEMBER_REMOVE,
    ByzantineSpec,
    CrashSpec,
    LinkFaultSpec,
    MaliciousClientSpec,
    MembershipSpec,
    PartitionSpec,
    StragglerSpec,
    symmetric_split,
)
from ..core.types import BucketId, ClientId, NodeId


def epoch_start_crashes(count: int, num_nodes: int, epoch: int = 0) -> List[CrashSpec]:
    """``count`` leaders crash at the beginning of ``epoch`` (Figure 7/8/9a).

    Victims are the highest-numbered nodes so that node 0 (which examples and
    tests often inspect) stays alive; any choice of victims is equivalent.
    """
    _check_count(count, num_nodes)
    victims = [num_nodes - 1 - i for i in range(count)]
    return [CrashSpec(node=v, trigger=CRASH_EPOCH_START, epoch=epoch) for v in victims]


def epoch_end_crashes(count: int, num_nodes: int, epoch: int = 0) -> List[CrashSpec]:
    """``count`` leaders crash right before their last proposal of ``epoch``."""
    _check_count(count, num_nodes)
    victims = [num_nodes - 1 - i for i in range(count)]
    return [CrashSpec(node=v, trigger=CRASH_EPOCH_END, epoch=epoch) for v in victims]


def stragglers(count: int, num_nodes: int, delay: float = 5.0) -> List[StragglerSpec]:
    """``count`` Byzantine stragglers delaying proposals by ``delay`` seconds
    (the paper uses 0.5 × epoch-change timeout = 5 s) and proposing empty
    batches (Figure 11/12)."""
    _check_count(count, num_nodes)
    victims = [num_nodes - 1 - i for i in range(count)]
    return [StragglerSpec(node=v, delay=delay, propose_empty=True) for v in victims]


def byzantine_leaders(
    count: int,
    num_nodes: int,
    behaviour: str = BYZ_EQUIVOCATE,
    buckets: Sequence[BucketId] = (),
    replay_factor: int = 3,
) -> List[ByzantineSpec]:
    """``count`` nodes Byzantine from the start (victims counted down from
    the top, like every other schedule builder).  ``buckets`` is required
    for the censorship behaviour; each adversary censors the same bucket
    set so the censored-latency metric has one well-defined target
    population."""
    _check_count(count, num_nodes)
    victims = [num_nodes - 1 - i for i in range(count)]
    return [
        ByzantineSpec(
            node=v,
            behaviour=behaviour,
            buckets=tuple(buckets),
            replay_factor=replay_factor,
        )
        for v in victims
    ]


def abusive_clients(
    count: int,
    num_clients: int,
    behaviour: str = CLIENT_WATERMARK_ABUSE,
    flood_factor: int = 3,
) -> List[MaliciousClientSpec]:
    """``count`` clients abusive from the start, counted down from the top
    like every other schedule builder (so low-numbered clients — the ones
    tests inspect — stay correct); the :class:`MaliciousClientSpec`
    defaults give the watermark jump and the biased bucket.
    Forged-signature abusers impersonate *correct* clients counted up from
    0 (ids below ``num_clients - count``, so a victim is never an abuser),
    distinct as long as there are at least as many correct clients as
    abusers."""
    if count < 0:
        raise ValueError("abusive client count must be non-negative")
    if count >= num_clients:
        raise ValueError("cannot corrupt every client")
    specs: List[MaliciousClientSpec] = []
    correct_count = num_clients - count
    for i in range(count):
        client: ClientId = num_clients - 1 - i
        victim = (
            i % correct_count if behaviour == CLIENT_FORGED_SIGNATURE else None
        )
        specs.append(
            MaliciousClientSpec(
                client=client,
                behaviour=behaviour,
                flood_factor=flood_factor,
                victim=victim,
            )
        )
    return specs


def censorship_targets(num_buckets: int, count: int = 4) -> List[BucketId]:
    """A fixed, easy-to-reason-about censorship target set: the first
    ``count`` buckets.  Rotation (Section 2.4) reassigns them to a
    different leader every epoch, which is exactly what bounds the damage
    a censoring leader can do."""
    if not 0 < count <= num_buckets:
        raise ValueError("count must be in (0, num_buckets]")
    return list(range(count))


def minority_partition(
    count: int, num_nodes: int, start_time: float, heal_time: float
) -> List[PartitionSpec]:
    """Isolate the ``count`` highest-numbered nodes (a minority) from the
    rest between ``start_time`` and ``heal_time``.

    Victims are counted down from the top like every other schedule
    builder, so node 0 — and the majority quorum that keeps ordering —
    stay connected.  ``count`` must leave a strong quorum on the majority
    side or the whole cluster (correctly) stalls instead of degrading.
    """
    _check_count(count, num_nodes)
    minority = tuple(num_nodes - 1 - i for i in range(count))
    majority = tuple(n for n in range(num_nodes) if n not in minority)
    return [symmetric_split(majority, minority, start_time, heal_time)]


def bridge_partition(
    num_nodes: int, bridge: NodeId, start_time: float, heal_time: float
) -> List[PartitionSpec]:
    """Split the cluster into two halves that can only talk through
    ``bridge`` — the classic mis-set-firewall topology where connectivity
    is transitive at the routing layer but not at the TCP mesh.

    Nodes below ``bridge`` form one group, nodes above the other; the
    bridge node itself keeps links to everyone.
    """
    if not 0 <= bridge < num_nodes:
        raise ValueError("bridge node outside the deployment")
    low = tuple(range(0, bridge))
    high = tuple(range(bridge + 1, num_nodes))
    if not low or not high:
        raise ValueError("bridge must have nodes on both sides")
    return [
        PartitionSpec(
            groups=(low, high),
            start_time=start_time,
            heal_time=heal_time,
            bridges=(bridge,),
        )
    ]


def one_way_blocks(
    pairs: Sequence[tuple], start_time: float, end_time: float
) -> List[LinkFaultSpec]:
    """Directionally block the ``(src, dst)`` links in ``pairs`` — the
    asymmetric-connectivity case (A reaches B, B cannot reach A) that
    symmetric partitions cannot express."""
    return [
        LinkFaultSpec(
            src=src, dst=dst, start_time=start_time, end_time=end_time, block=True
        )
        for src, dst in pairs
    ]


def flapping_links(
    pairs: Sequence[tuple],
    flap_period: float,
    flap_up: float = 0.5,
    retransmit: float = 0.0,
    seed: int = 0,
) -> List[LinkFaultSpec]:
    """Links that oscillate between up and down on a deterministic schedule
    for the whole run (``flap_period`` seconds per cycle, up for the first
    ``flap_up`` fraction of each).  ``retransmit`` > 0 re-offers payloads
    lost to a down window after that many seconds (a reliable transport
    riding out the flaps)."""
    return [
        LinkFaultSpec(
            src=src,
            dst=dst,
            flap_period=flap_period,
            flap_up=flap_up,
            retransmit=retransmit,
            seed=seed,
        )
        for src, dst in pairs
    ]


def membership_additions(
    count: int, num_nodes: int, start: float = 3.0
) -> List[MembershipSpec]:
    """``count`` joiners (ids counted up from ``num_nodes``) submitted as
    add-ConfigTxs at ``start``.

    Joiner ids must be contiguous from the genesis ``num_nodes`` (the
    harness's node table is id-indexed), which this builder guarantees.
    """
    if count < 0:
        raise ValueError("joiner count must be non-negative")
    return [
        MembershipSpec(node=num_nodes + i, action=MEMBER_ADD, time=start)
        for i in range(count)
    ]


def membership_removals(
    nodes: Sequence[NodeId], start: float = 3.0, spacing: float = 0.0
) -> List[MembershipSpec]:
    """One remove-ConfigTx per entry of ``nodes``, ``spacing`` seconds apart."""
    return [
        MembershipSpec(node=node, action=MEMBER_REMOVE, time=start + i * spacing)
        for i, node in enumerate(nodes)
    ]


def eviction_watch(nodes: Sequence[NodeId]) -> List[MembershipSpec]:
    """Detection-driven removals: the harness polls the failure histories
    from the start of the run and submits a remove-ConfigTx for each of
    ``nodes`` once some correct replica has recorded it as a failed leader.  Pair with a
    :class:`ByzantineSpec` for the same node to close the eviction loop:
    misbehave → view change → failure history → removal from membership.
    """
    return [
        MembershipSpec(node=node, action=MEMBER_EVICT_DETECTED)
        for node in nodes
    ]


def rolling_upgrade_specs(
    num_nodes: int, start: float = 3.0, period: float = 8.0
) -> List[MembershipSpec]:
    """Upgrade every genesis replica in turn: remove node ``i`` at
    ``start + 2·period·i``, re-add it one ``period`` later.

    ``period`` must exceed the epoch duration at the scenario's request
    rate: a remove and re-add of the same node committed inside one epoch
    cancel out before activation, and the "upgrade" never happens.  One
    node is out at a time, so a strong quorum of the remaining replicas
    keeps ordering throughout.
    """
    if num_nodes < 2:
        raise ValueError("rolling upgrade needs at least 2 nodes")
    if period <= 0:
        raise ValueError("period must be positive")
    specs: List[MembershipSpec] = []
    for i in range(num_nodes):
        cycle = start + 2 * period * i
        specs.append(MembershipSpec(node=i, action=MEMBER_REMOVE, time=cycle))
        specs.append(MembershipSpec(node=i, action=MEMBER_ADD, time=cycle + period))
    return specs


def _check_count(count: int, num_nodes: int) -> None:
    if count < 0:
        raise ValueError("fault count must be non-negative")
    if count >= num_nodes:
        raise ValueError("cannot fault every node")
