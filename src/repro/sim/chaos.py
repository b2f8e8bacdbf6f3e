"""Network chaos: scheduled partitions and degraded links.

The fault specs in :mod:`repro.runtime.faults` make *nodes* and *clients*
misbehave; this module makes the **network itself** the adversary, which is
the failure mode the paper's epoch/checkpoint structure is supposed to ride
out (liveness across asynchrony, Section 2.1's partially synchronous model):

* :class:`PartitionSpec` — a scheduled split of the endpoint set into
  isolated groups at ``start_time``, healed at ``heal_time``.  Supports
  symmetric splits, minority isolation and *bridge* nodes (endpoints that
  keep reaching every group, modelling a router that still sees both sides).
* :class:`LinkFaultSpec` — a per-link, *directional* degradation: one-way
  blocks (asymmetric connectivity), probabilistic loss, duplication,
  reorder-inducing extra delay, and up/down flapping on a deterministic
  schedule.

Both are installed through the :class:`~repro.sim.faults.FaultInjector`
(scheduled in virtual time like every other fault) and applied by the
:class:`~repro.sim.network.Network` *before* wire batching, so drops and
duplications act on individual payloads and can never hide inside a
coalesced :class:`~repro.runtime.wire.MessageBatchMsg` frame.

Determinism: every probabilistic effect (loss, duplication, delay jitter)
draws from a per-installed-fault ``random.Random`` seeded from the spec and
the link, and flapping is a pure function of virtual time — same seeds,
same schedule, same run.  With no chaos spec installed the network's send
path is unchanged (one truthiness test), so all existing golden traces
replay bit-identically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..core.types import NodeId

#: Drop causes recorded by :class:`~repro.sim.network.NetworkStats`.
DROP_CRASH = "crash"
DROP_PARTITION = "partition"
DROP_LINK_FILTER = "link-filter"
DROP_RANDOM = "random"
DROP_LINK_FAULT = "link-fault"
DROP_NO_HANDLER = "no-handler"

DROP_CAUSES = (
    DROP_CRASH,
    DROP_PARTITION,
    DROP_LINK_FILTER,
    DROP_RANDOM,
    DROP_LINK_FAULT,
    DROP_NO_HANDLER,
)


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


class ActiveLinkFault:
    """Runtime state of one installed :class:`LinkFaultSpec`.

    Owns the per-fault RNG (seeded from spec seed and link endpoints, so
    installation order cannot perturb other randomness) and the drop/copy
    counters the harness surfaces in ``RunReport.partitions``.
    """

    __slots__ = (
        "spec",
        "_rng",
        "payloads_dropped",
        "payloads_duplicated",
        "payloads_retransmitted",
    )

    def __init__(self, spec: LinkFaultSpec):
        self.spec = spec
        # Deterministic seed mix without hash() (str hashing is salted).
        mixed = (
            (spec.seed * 2654435761)
            ^ (int(spec.src) * 1_000_003)
            ^ (int(spec.dst) * 7919)
        ) & 0xFFFFFFFF
        self._rng = random.Random(mixed ^ 0xC4A05)
        self.payloads_dropped = 0
        self.payloads_duplicated = 0
        self.payloads_retransmitted = 0

    def link_down(self, now: float) -> bool:
        """Whether the link is currently blocked (one-way block or the down
        phase of the flap cycle)."""
        spec = self.spec
        if spec.block:
            return True
        if spec.flap_period > 0:
            phase = ((now - spec.start_time) % spec.flap_period) / spec.flap_period
            return phase >= spec.flap_up
        return False

    def drops(self, now: float) -> bool:
        """Per-payload drop decision (block, flap-down, or random loss)."""
        if self.link_down(now):
            self.payloads_dropped += 1
            return True
        spec = self.spec
        if spec.loss_rate > 0 and self._rng.random() < spec.loss_rate:
            self.payloads_dropped += 1
            return True
        return False

    def duplicates(self) -> bool:
        """Per-payload duplication decision (one extra copy)."""
        spec = self.spec
        if spec.duplicate_rate > 0 and self._rng.random() < spec.duplicate_rate:
            self.payloads_duplicated += 1
            return True
        return False

    def extra_delay(self) -> float:
        """Per-wire-message extra delay sample (0 when not configured)."""
        spec = self.spec
        if spec.extra_delay > 0:
            return spec.extra_delay * self._rng.random()
        return 0.0

    def stats(self) -> Dict[str, object]:
        spec = self.spec
        return {
            "src": spec.src,
            "dst": spec.dst,
            "payloads_dropped": self.payloads_dropped,
            "payloads_duplicated": self.payloads_duplicated,
            "payloads_retransmitted": self.payloads_retransmitted,
        }


def symmetric_split(
    left: Iterable[NodeId],
    right: Iterable[NodeId],
    start_time: float,
    heal_time: float,
    bridges: Iterable[NodeId] = (),
) -> PartitionSpec:
    """Convenience builder for the common two-group split."""
    return PartitionSpec(
        groups=(tuple(left), tuple(right)),
        start_time=start_time,
        heal_time=heal_time,
        bridges=tuple(bridges),
    )
