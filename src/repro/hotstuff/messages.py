"""Chained-HotStuff protocol messages and block structure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.types import LOG_ENTRY, LogEntry, SeqNr, ViewNr, is_nil
from ..crypto.hashing import hash_int, sha256
from ..crypto.threshold import PartialSignature, ThresholdSignature
from ..runtime.codec import BYTES, INT, nested, optional, register
from ..runtime.wire import register_batchable


@dataclass(frozen=True)
class QuorumCertificate:
    """Certificate that 2f+1 nodes voted for the block of ``view``.

    ``signature`` is the combined threshold signature over the block digest;
    the genesis certificate carries ``None``.
    """

    view: ViewNr
    block_digest: bytes
    signature: Optional[ThresholdSignature]

    def wire_size(self) -> int:
        return 48 + (self.signature.wire_size() if self.signature else 0)


@dataclass(frozen=True)
class Block:
    """One node in the HotStuff chain.

    ``sn`` is the ISS sequence number the block's value is destined for, or
    ``None`` for the dummy blocks appended to flush the pipeline (Section
    4.2.2 / Figure 4).  ``justify`` certifies the parent block.
    """

    view: ViewNr
    round: int
    sn: Optional[SeqNr]
    value: LogEntry
    parent_digest: bytes
    justify: QuorumCertificate

    def digest(self) -> bytes:
        value_digest = self.value.digest() if self.value is not None else b""
        return sha256(
            b"hotstuff-block",
            hash_int(self.view),
            hash_int(self.round),
            hash_int(self.sn if self.sn is not None else 0xFFFFFFFF),
            value_digest,
            self.parent_digest,
            self.justify.block_digest,
        )

    def payload_size(self) -> int:
        if self.value is None or is_nil(self.value):
            return 1
        return self.value.size_bytes()


#: Digest of the implicit genesis block every chain starts from.
GENESIS_DIGEST = sha256(b"hotstuff-genesis")

#: Genesis certificate (QC₀ in Figure 4).
GENESIS_QC = QuorumCertificate(view=-1, block_digest=GENESIS_DIGEST, signature=None)


@dataclass(frozen=True)
class Proposal:
    """Leader's proposal of a new block."""

    block: Block

    def wire_size(self) -> int:
        return 96 + self.block.payload_size() + self.block.justify.wire_size()


@register_batchable
@dataclass(frozen=True)
class Vote:
    """A replica's (partial-threshold-signed) vote for a block.  Batchable:
    votes riding the same link within one flush tick share a wire frame."""

    view: ViewNr
    block_digest: bytes
    partial: PartialSignature

    def wire_size(self) -> int:
        return 48 + self.partial.wire_size()


@register_batchable
@dataclass(frozen=True)
class NewRound:
    """Pacemaker message: a replica's request to advance to ``round``.

    Carries the replica's highest known QC so the next leader can safely
    extend the chain.  Batchable like any other vote-sized message.
    """

    round: int
    high_qc: QuorumCertificate

    def wire_size(self) -> int:
        return 32 + self.high_qc.wire_size()


register(
    QuorumCertificate,
    0x32,
    view=INT,
    block_digest=BYTES,
    signature=optional(nested(ThresholdSignature)),
)
register(
    Block,
    0x33,
    view=INT,
    round=INT,
    sn=optional(INT),
    value=LOG_ENTRY,
    parent_digest=BYTES,
    justify=nested(QuorumCertificate),
)
register(Proposal, 0x34, block=nested(Block))
register(Vote, 0x35, view=INT, block_digest=BYTES, partial=nested(PartialSignature))
register(NewRound, 0x36, round=INT, high_qc=nested(QuorumCertificate))
