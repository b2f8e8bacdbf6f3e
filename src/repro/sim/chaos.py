"""Network chaos, simulator side: drop causes and installed link faults.

The chaos *specs* — :class:`~repro.runtime.faults.PartitionSpec` and
:class:`~repro.runtime.faults.LinkFaultSpec` — are pure data and live with
every other fault spec in :mod:`repro.runtime.faults`.  This module holds
what the simulated network needs to *apply* them: the drop-cause
vocabulary of :class:`~repro.sim.network.NetworkStats` and
:class:`ActiveLinkFault`, the runtime state of one installed link fault.

Both specs are armed through the :class:`~repro.sim.faults.FaultInjector`
(scheduled in virtual time like every other fault) and applied by the
:class:`~repro.sim.network.Network` *before* wire batching, so drops and
duplications act on individual payloads and can never hide inside a
coalesced :class:`~repro.runtime.wire.MessageBatchMsg` frame.  Besides a
crashed endpoint, they are the simulated network's only way to lose a
message: random loss is a ``LinkFaultSpec.loss_rate`` on the
links it names, never a network-wide setting, and :data:`DROP_CAUSES`
lists every cause a drop is counted under.

Determinism: every probabilistic effect (loss, duplication, delay jitter)
draws from a per-installed-fault ``random.Random`` seeded from the spec and
the link, and flapping is a pure function of virtual time — same seeds,
same schedule, same run.  With no chaos spec installed the network's send
path pays one truthiness test and draws from no fault RNG.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # annotation only: the spec must not be importable from here
    from ..runtime.faults import LinkFaultSpec

#: Drop causes recorded by :class:`~repro.sim.network.NetworkStats`.
DROP_CRASH = "crash"
DROP_PARTITION = "partition"
DROP_LINK_FAULT = "link-fault"
DROP_NO_HANDLER = "no-handler"

DROP_CAUSES = (DROP_CRASH, DROP_PARTITION, DROP_LINK_FAULT, DROP_NO_HANDLER)


class ActiveLinkFault:
    """Runtime state of one installed :class:`LinkFaultSpec`.

    Owns the per-fault RNG (seeded from spec seed and link endpoints, so
    installation order cannot perturb other randomness) and the drop/copy
    counters ``scenarios.row`` reports as ``link_faults``.
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
