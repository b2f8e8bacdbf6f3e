"""Active Byzantine adversaries as per-node network send hooks.

The paper's robustness claims — bucket rotation defeats request censorship
(Section 3.2), the follower acceptance rules plus leader-selection policies
contain misbehaving leaders (Sections 4.2 and 3.4) — are only worth
reproducing if something actually attacks the system.  This module builds
the *send-manipulating* half of :class:`~repro.runtime.faults.ByzantineSpec`:
callable adversaries installed on the :class:`~repro.sim.network.Network`
via :meth:`~repro.sim.network.Network.set_adversary` that rewrite, forge or
duplicate every message the Byzantine node puts on the wire.

Design constraints the implementations respect:

* **No forged client signatures.**  The simulated PKI is sound inside the
  process (only the key store can sign), so adversaries equivocate by
  sending *differently composed but individually valid* batches — exactly
  what a real Byzantine leader, who also cannot forge client signatures,
  would do.
* **The node's local state stays honest.**  Hooks only intercept remote
  sends; the adversary's own in-process shortcut (``SBContext.send`` to
  itself) delivers the untampered original, mirroring a malicious replica
  that obviously knows what it really proposed.
* **Deterministic.**  Variant assignment is a pure function of the
  destination id, so seeded runs replay bit-identically (the Byzantine
  gate pins a golden trace on this).

Censorship is not a send manipulation — the leader simply never proposes
the targeted requests — so it is implemented inside
:class:`~repro.core.iss.ISSNode` (see ``ISSNode._cut_batch``), like the
straggler behaviour.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Tuple

from ..core.messages import InstanceMessage
from ..core.types import Batch, NodeId
from ..crypto.signatures import SIGNATURE_SIZE
from ..crypto.threshold import PartialSignature
from ..hotstuff.messages import Block, Proposal, Vote
from ..pbft.messages import Commit, PrePrepare, Prepare
from ..runtime.faults import (
    BYZ_CENSOR,
    BYZ_EQUIVOCATE,
    BYZ_INVALID_VOTES,
    BYZ_REPLAY,
    ByzantineSpec,
)

#: Digest equivocating/forging adversaries substitute into votes: a valid
#: 32-byte value that matches no real batch.
FORGED_DIGEST = b"\xbe" * 32

#: Signature bytes that can never verify (the key store's HMACs are
#: indistinguishable from random, so a constant is as good as any forgery).
FORGED_SIGNATURE = b"\x00" * SIGNATURE_SIZE


class EquivocationAdversary:
    """Send conflicting, individually valid proposals to different peers.

    For every remote proposal carrying a real batch (PBFT view-0
    ``PrePrepare``, HotStuff ``Proposal``), destinations with an even node
    id receive a *variant* batch — the original minus its first request —
    while odd destinations (and the adversary itself) see the original.
    Splitting the cluster roughly in half guarantees neither variant can
    gather a strong quorum on the adversary's votes alone, so correct
    nodes either stall the slot into ``⊥`` (view/round change) or commit
    exactly one variant; SB Agreement must hold either way.

    Empty batches cannot be equivocated on without forging client
    signatures, which the adversary (like a real one) cannot do — they
    pass through unmodified.
    """

    def __init__(self, node: NodeId):
        self.node = node
        #: Conflicting proposal variants actually put on the wire.
        self.equivocations_sent = 0

    def __call__(self, dst: NodeId, message: object) -> Iterable[object]:
        """Network hook: messages to put on the wire towards ``dst``."""
        if message.__class__ is InstanceMessage and dst % 2 == 0:
            variant = self._variant_payload(message.payload)
            if variant is not None:
                self.equivocations_sent += 1
                return (InstanceMessage(instance_id=message.instance_id, payload=variant),)
        return (message,)

    def _variant_payload(self, payload: object) -> Optional[object]:
        """A conflicting-but-valid twin of a proposal payload, or None."""
        if isinstance(payload, PrePrepare):
            if payload.view != 0 or not isinstance(payload.value, Batch):
                return None
            variant = self._variant_batch(payload.value)
            if variant is None:
                return None
            return PrePrepare(
                view=payload.view, sn=payload.sn, value=variant, digest=variant.digest()
            )
        if isinstance(payload, Proposal):
            block = payload.block
            if not isinstance(block.value, Batch):
                return None
            variant = self._variant_batch(block.value)
            if variant is None:
                return None
            return Proposal(
                block=Block(
                    view=block.view,
                    round=block.round,
                    sn=block.sn,
                    value=variant,
                    parent_digest=block.parent_digest,
                    justify=block.justify,
                )
            )
        return None

    @staticmethod
    def _variant_batch(batch: Batch) -> Optional[Batch]:
        """Drop the first request: a different digest, every rule still met."""
        if len(batch.requests) < 1:
            return None
        return Batch.of(batch.requests[1:])


class InvalidVoteAdversary:
    """Forge every outgoing vote so correct receivers must reject it.

    Checkpoint signatures are zeroed (the receiver's
    :meth:`~repro.crypto.signatures.KeyStore.verify` fails), HotStuff
    partial signatures are zeroed (``verify_share`` fails) and PBFT
    prepare/commit digests are pointed at a value that exists nowhere.
    The adversary contributes nothing to any quorum — the attack degrades
    it to a crash-equivalent voter while flooding peers with garbage that
    their verification paths must absorb and count.
    """

    def __init__(self, node: NodeId):
        self.node = node
        self.votes_forged = 0

    def __call__(self, dst: NodeId, message: object) -> Iterable[object]:
        """Network hook: messages to put on the wire towards ``dst``."""
        forged = self._forge(message)
        if forged is not None:
            self.votes_forged += 1
            return (forged,)
        return (message,)

    def _forge(self, message: object) -> Optional[object]:
        if message.__class__ is InstanceMessage:
            payload = self._forge_payload(message.payload)
            if payload is None:
                return None
            return InstanceMessage(instance_id=message.instance_id, payload=payload)
        # Checkpoint votes travel unwrapped; duck-type on the signed fields
        # to avoid importing the checkpoint module here (layering).
        if hasattr(message, "signature") and hasattr(message, "log_root"):
            return replace(message, signature=FORGED_SIGNATURE)
        return None

    def _forge_payload(self, payload: object) -> Optional[object]:
        if isinstance(payload, (Prepare, Commit)):
            return replace(payload, digest=FORGED_DIGEST)
        if isinstance(payload, Vote):
            partial = payload.partial
            return replace(
                payload,
                partial=PartialSignature(
                    signer=partial.signer,
                    message_digest=partial.message_digest,
                    share=b"\x00" * len(partial.share),
                ),
            )
        return None


class ReplayAdversary:
    """Duplicate every outgoing message ``factor`` times (replay flooding).

    Receivers must be idempotent — vote sets keyed by sender, delivered
    filters, watermark windows — so the flood costs bandwidth and
    processing without changing what anyone delivers.
    """

    def __init__(self, node: NodeId, factor: int):
        self.node = node
        self.factor = factor
        #: Extra copies injected beyond the original sends.
        self.duplicates_sent = 0

    def __call__(self, dst: NodeId, message: object) -> Iterable[object]:
        """Network hook: messages to put on the wire towards ``dst``."""
        self.duplicates_sent += self.factor - 1
        return (message,) * self.factor


def make_adversary(spec: ByzantineSpec):
    """Build the network send hook for ``spec`` (None for node-level
    behaviours such as censorship, which need no hook)."""
    if spec.behaviour == BYZ_EQUIVOCATE:
        return EquivocationAdversary(spec.node)
    if spec.behaviour == BYZ_INVALID_VOTES:
        return InvalidVoteAdversary(spec.node)
    if spec.behaviour == BYZ_REPLAY:
        return ReplayAdversary(spec.node, spec.replay_factor)
    if spec.behaviour == BYZ_CENSOR:
        return None
    raise ValueError(f"unknown Byzantine behaviour {spec.behaviour!r}")
