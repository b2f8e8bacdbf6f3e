"""Pure-data fault specifications shared by every backend.

The fault-spec family describes *what* goes wrong — which node crashes and
when, who straggles, who is actively Byzantine, which client misbehaves,
which links degrade or split, which membership change is scheduled.  This
is the only module that defines a spec, and a fault schedule is one
ordered sequence mixing every kind (``Deployment(faults=[...])``).  The
specs are plain frozen dataclasses with no scheduling behaviour, so they
live on the runtime side of the node/transport boundary: protocol code
honours them directly (:class:`~repro.core.iss.ISSNode` implements
:class:`StragglerSpec` delays and :class:`ByzantineSpec` censorship
itself), while *applying* them to a running deployment is backend
business — the simulator's :class:`~repro.sim.faults.FaultInjector` arms
crashes, restarts, adversaries, partitions and link faults in virtual
time through its one ``schedule(spec)`` entry point.

Two kinds of faults matter for the paper's evaluation (Section 6.4):

* **Crash faults** — a node stops participating entirely.  The evaluation
  distinguishes *epoch-start* crashes (the leader dies right when an epoch
  begins, a worst case for the number of proposed sequence numbers) and
  *epoch-end* crashes (the leader dies just before proposing its last
  sequence number, a worst case for epoch duration).
* **Byzantine stragglers** — a leader delays its proposals as much as
  possible without getting suspected and proposes empty batches, harming
  latency and throughput without triggering a view change.

Beyond those, :class:`ByzantineSpec` describes an *actively malicious*
node, :class:`MaliciousClientSpec` a misbehaving end user (Section 3.7's
threat model), :class:`RestartSpec` brings a crashed node back,
:class:`MembershipSpec` schedules dynamic reconfiguration, and
:class:`PartitionSpec` / :class:`LinkFaultSpec` make the *network itself*
the adversary (a scheduled split → heal; a per-link directional
degradation) — the failure mode the paper's epoch/checkpoint structure is
supposed to ride out (Section 2.1's partially synchronous model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

# The primitive id aliases, duplicated from repro.core.types: runtime is
# the bottom layer and must not import upward into core (core imports
# from here, and an upward import closes a cycle when this module is the
# interpreter's entry point into the package).
NodeId = int
ClientId = int
EpochNr = int
BucketId = int

#: Crash trigger positions used by the evaluation.
CRASH_AT_TIME = "at-time"
CRASH_EPOCH_START = "epoch-start"
CRASH_EPOCH_END = "epoch-end"

#: Byzantine behaviours (see :class:`ByzantineSpec`).
BYZ_EQUIVOCATE = "equivocate"
BYZ_CENSOR = "censor"
BYZ_INVALID_VOTES = "invalid-votes"
BYZ_REPLAY = "replay"

BYZANTINE_BEHAVIOURS = (BYZ_EQUIVOCATE, BYZ_CENSOR, BYZ_INVALID_VOTES, BYZ_REPLAY)

#: Malicious-client behaviours (see :class:`MaliciousClientSpec`).
CLIENT_WATERMARK_ABUSE = "watermark-abuse"
CLIENT_DUPLICATE_FLOOD = "duplicate-flood"
CLIENT_BUCKET_BIAS = "bucket-bias"
CLIENT_FORGED_SIGNATURE = "forged-signature"

MALICIOUS_CLIENT_BEHAVIOURS = (
    CLIENT_WATERMARK_ABUSE,
    CLIENT_DUPLICATE_FLOOD,
    CLIENT_BUCKET_BIAS,
    CLIENT_FORGED_SIGNATURE,
)

#: Membership-change actions (see :class:`MembershipSpec`).
MEMBER_ADD = "add"
MEMBER_REMOVE = "remove"
MEMBER_EVICT_DETECTED = "evict-detected"

MEMBERSHIP_ACTIONS = (MEMBER_ADD, MEMBER_REMOVE, MEMBER_EVICT_DETECTED)


@dataclass(frozen=True)
class CrashSpec:
    """Description of a single crash fault.

    ``trigger`` selects how the crash is anchored:

    * ``"at-time"`` — crash at absolute virtual time ``time``.
    * ``"epoch-start"`` — crash as soon as ``epoch`` starts at the victim.
    * ``"epoch-end"`` — crash right before the victim proposes the last
      sequence number of its segment in ``epoch``.
    """

    node: NodeId
    trigger: str = CRASH_AT_TIME
    time: float = 0.0
    epoch: EpochNr = 0

    def __post_init__(self) -> None:
        if self.trigger not in (CRASH_AT_TIME, CRASH_EPOCH_START, CRASH_EPOCH_END):
            raise ValueError(f"unknown crash trigger {self.trigger!r}")


@dataclass(frozen=True)
class RestartSpec:
    """Bring a crashed node back at absolute virtual time ``time``.

    The victim must have crashed (via a :class:`CrashSpec`) before
    ``time``; restarting a node that never crashed is a no-op.  Recovery
    itself — WAL replay, snapshot load, state transfer — is performed by
    the harness through :attr:`FaultInjector.on_restart`.
    """

    node: NodeId
    time: float


@dataclass(frozen=True)
class StragglerSpec:
    """Description of a Byzantine straggler.

    The straggler delays every proposal by ``delay`` seconds (the paper uses
    0.5x the epoch-change timeout, i.e. 5 s) and proposes empty batches.
    """

    node: NodeId
    #: Delay before each proposal; the paper's straggler sends an empty
    #: proposal every 0.5 * epoch_change_timeout.
    delay: float = 5.0
    #: Whether the straggler strips all requests from its proposals.
    propose_empty: bool = True


@dataclass(frozen=True)
class ByzantineSpec:
    """Description of one actively Byzantine node.

    ``behaviour`` selects the attack:

    * ``"equivocate"`` — as a segment leader, send *conflicting* proposals
      to different peers (a valid batch to one half, a valid-but-different
      batch to the other), attacking SB Agreement.
    * ``"censor"`` — as a segment leader, silently exclude the requests of
      ``buckets`` from every batch it cuts (the censorship attack bucket
      rotation defends against, Section 3.2).
    * ``"invalid-votes"`` — corrupt every outgoing vote: checkpoint
      signatures, HotStuff partial signatures and PBFT vote digests are
      forged, so correct nodes must reject them.
    * ``"replay"`` — send every protocol message ``replay_factor`` times
      (duplicate/replay flooding; receivers' idempotence must absorb it).

    Equivocation and forged votes target the BFT protocols; Raft is CFT
    and makes no integrity promises against them (the scenarios only pair
    Raft with the censorship and replay behaviours).
    """

    node: NodeId
    behaviour: str = BYZ_EQUIVOCATE
    #: Virtual time at which the node turns Byzantine (0 = from the start).
    start_time: float = 0.0
    #: Buckets censored by the ``"censor"`` behaviour (ignored otherwise).
    buckets: Tuple[BucketId, ...] = ()
    #: Copies of each message sent by the ``"replay"`` behaviour.
    replay_factor: int = 3

    def __post_init__(self) -> None:
        if self.behaviour not in BYZANTINE_BEHAVIOURS:
            raise ValueError(f"unknown Byzantine behaviour {self.behaviour!r}")
        if self.behaviour == BYZ_CENSOR and not self.buckets:
            raise ValueError("censor behaviour requires at least one bucket")
        if self.behaviour == BYZ_REPLAY and self.replay_factor < 2:
            raise ValueError("replay_factor must be >= 2")


@dataclass(frozen=True)
class MaliciousClientSpec:
    """Description of one misbehaving client process (Section 3.7 threat
    model: the SMR service must tolerate abusive end users, not just faulty
    replicas).

    ``behaviour`` selects the attack:

    * ``"watermark-abuse"`` — alternate between timestamps far beyond the
      watermark window (every node must reject them) and deliberately
      skipped timestamps, so the contiguous-prefix low watermark never
      advances and the abuser eventually wedges *itself* out of the window.
    * ``"duplicate-flood"`` — submit each request ``flood_factor`` times to
      every node, and re-submit already-delivered requests; bucket-queue
      idempotence and the client watermarks' committed record must absorb
      the flood.
    * ``"bucket-bias"`` — craft request ids (by skipping timestamps) that
      all map to ``target_bucket``, attempting to overload one bucket; the
      payload-excluded ``c||t`` hash plus the watermark window bound the
      damage to at most ``window`` requests before the abuser wedges.
    * ``"forged-signature"`` — claim ``victim``'s identity on requests
      signed with the abuser's own key (a stolen-identity attempt); the
      signature check must reject every one.  Rejections are attributed to
      the *claimed* identity — the only one nodes can observe.  Only
      meaningful when the deployment signs client requests
      (``ISSConfig.client_signatures``); in a signature-free CFT
      configuration identity forgery is trivially possible and outside the
      fault model, so the scenarios skip the pairing.
    """

    client: ClientId
    behaviour: str = CLIENT_WATERMARK_ABUSE
    #: Virtual time at which the client turns abusive (0 = from the start;
    #: before that it behaves like a correct client).
    start_time: float = 0.0
    #: ``"watermark-abuse"``: how far beyond the window the far-out
    #: timestamps jump.
    jump: int = 1_000_000
    #: ``"duplicate-flood"``: copies of each request sent to every node.
    flood_factor: int = 3
    #: ``"bucket-bias"``: the bucket the crafted ids try to overload.
    target_bucket: BucketId = 0
    #: ``"forged-signature"``: the client identity the forgeries claim
    #: (required for that behaviour).
    victim: Optional[ClientId] = None

    def __post_init__(self) -> None:
        if self.behaviour not in MALICIOUS_CLIENT_BEHAVIOURS:
            raise ValueError(f"unknown malicious-client behaviour {self.behaviour!r}")
        if self.behaviour == CLIENT_DUPLICATE_FLOOD and self.flood_factor < 2:
            raise ValueError("flood_factor must be >= 2")
        if self.behaviour == CLIENT_FORGED_SIGNATURE:
            if self.victim is None:
                raise ValueError("forged-signature behaviour requires a victim")
            if self.victim == self.client:
                raise ValueError("forging one's own identity is just signing")
        if self.jump < 1:
            raise ValueError("jump must be >= 1")


@dataclass(frozen=True)
class MembershipSpec:
    """One scheduled membership change (dynamic reconfiguration).

    ``action`` selects the change:

    * ``"add"`` — at virtual time ``time`` the deployment's admin client
      submits a ConfigTx adding replica ``node``; once the transaction
      commits and its epoch seals, the new replica boots and catches up
      via snapshot apply → WAL replay → state transfer (the same path a
      restarted node takes).
    * ``"remove"`` — ditto for removing ``node``; the replica is quiesced
      at the activation boundary (its in-flight SB instances have all
      delivered by then — epochs finish strictly sequentially).
    * ``"evict-detected"`` — Byzantine-eviction wiring: from ``time`` on,
      the harness watches the (log-derived, hence identical-at-all-nodes)
      failure history, and as soon as replica ``node`` is implicated it
      submits the removal ConfigTx.  Pairs with a :class:`ByzantineSpec`
      for the same node to close the detect→evict loop.

    A rolling upgrade of the whole cluster is just ``remove`` + ``add``
    per node, staggered in time.
    """

    node: NodeId
    action: str = MEMBER_ADD
    #: Submission time of the ConfigTx (``"evict-detected"``: time from
    #: which the detection watch is armed).
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in MEMBERSHIP_ACTIONS:
            raise ValueError(f"unknown membership action {self.action!r}")
        if self.node < 0:
            raise ValueError("membership node ids are non-negative")
        if self.time < 0:
            raise ValueError("membership times are non-negative")


@dataclass(frozen=True)
class PartitionSpec:
    """One scheduled network partition: split at ``start_time``, heal at
    ``heal_time``.

    ``groups`` lists the isolated endpoint groups; traffic crosses group
    boundaries only through ``bridges`` — endpoints that stay connected to
    *every* group (and to each other).  Endpoints mentioned nowhere default
    to group 0, so clients keep reaching the first ("majority") group; list
    a client endpoint explicitly to cut it off too.

    The network supports one partition at a time: overlapping specs are
    rejected by the injector, since a second split silently replacing the
    first is never what a scenario means.
    """

    groups: Tuple[Tuple[NodeId, ...], ...]
    start_time: float
    heal_time: float
    bridges: Tuple[NodeId, ...] = ()

    def __post_init__(self) -> None:
        # Normalise nested iterables into tuples so specs stay hashable.
        object.__setattr__(
            self, "groups", tuple(tuple(group) for group in self.groups)
        )
        object.__setattr__(self, "bridges", tuple(self.bridges))
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        seen: set = set()
        for group in self.groups:
            if not group:
                raise ValueError("partition groups must be non-empty")
            for node in group:
                if node in seen:
                    raise ValueError(f"endpoint {node} appears in two groups")
                seen.add(node)
        for bridge in self.bridges:
            if bridge in seen:
                raise ValueError(f"bridge {bridge} cannot also be in a group")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.heal_time <= self.start_time:
            raise ValueError("heal_time must be after start_time")


@dataclass(frozen=True)
class LinkFaultSpec:
    """One directional link degradation, active on [start_time, end_time).

    Effects compose on the ``src → dst`` direction only (model the reverse
    direction with a second spec):

    * ``block`` — drop everything while active (one-way block; the building
      block of asymmetric connectivity).
    * ``loss_rate`` — drop each payload independently with this probability.
    * ``duplicate_rate`` — send an extra copy of each payload with this
      probability (receivers' idempotence must absorb it).
    * ``extra_delay`` — add up to this many seconds of uniform extra delay
      per wire message, reordering it against other traffic on the link.
    * ``flap_period`` / ``flap_up`` — the link cycles deterministically:
      up for ``flap_up * flap_period`` seconds, then down (drops) for the
      rest of each period, phase-anchored at ``start_time``.
    * ``retransmit`` — model a *reliable transport* (TCP) under the loss:
      a payload dropped by ``loss_rate`` or a flap-down window is re-offered
      to the link after this many seconds (re-subjected to the link's chaos,
      so repeated loss backs the payload up geometrically).  Loss then
      degrades latency instead of silently eating protocol messages — which
      is what BFT protocols assume of channels between correct nodes.  ``0``
      (the default) makes drops permanent (a UDP-like link).  Incompatible
      with ``block``: one-way blocks model routing-level unreachability,
      which no amount of retransmission crosses.

    ``seed`` feeds the per-fault RNG (mixed with the link endpoints), so two
    faults with different seeds degrade differently but reproducibly.
    """

    src: NodeId
    dst: NodeId
    start_time: float = 0.0
    end_time: float = math.inf
    block: bool = False
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    extra_delay: float = 0.0
    flap_period: float = 0.0
    flap_up: float = 0.5
    retransmit: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("a link fault needs two distinct endpoints")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.end_time <= self.start_time:
            raise ValueError("end_time must be after start_time")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if self.extra_delay < 0:
            raise ValueError("extra_delay must be non-negative")
        if self.flap_period < 0:
            raise ValueError("flap_period must be non-negative")
        if self.flap_period > 0 and not 0.0 < self.flap_up < 1.0:
            raise ValueError("flap_up must be in (0, 1) when flapping")
        if self.retransmit < 0:
            raise ValueError("retransmit must be non-negative")
        if self.retransmit > 0 and self.block:
            raise ValueError(
                "retransmit cannot cross a one-way block (routing-level "
                "unreachability is not packet loss)"
            )
        if not (
            self.block
            or self.loss_rate > 0
            or self.duplicate_rate > 0
            or self.extra_delay > 0
            or self.flap_period > 0
        ):
            raise ValueError("link fault configures no effect")


def symmetric_split(
    left: Iterable[NodeId],
    right: Iterable[NodeId],
    start_time: float,
    heal_time: float,
) -> PartitionSpec:
    """Convenience builder for the common two-group split (no bridge)."""
    return PartitionSpec(
        groups=(tuple(left), tuple(right)), start_time=start_time, heal_time=heal_time
    )
