"""Simulated BLS-style threshold signatures.

HotStuff quorum certificates aggregate ``2f+1`` partial signatures into one
constant-size certificate (the paper uses BLS via the DEDIS kyber library).
This module reproduces the interface and the properties the protocol relies
on — a certificate verifies only if at least ``threshold`` distinct,
registered signers contributed valid shares over the same message — with a
hash-based construction documented as a substitution in
docs/ARCHITECTURE.md, "Model and substitutions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple

from ..runtime.codec import BYTES, INT, frozenset_of, register
from .hashing import sha256
from .signatures import KeyStore

#: Wire size of a combined threshold signature (matches a BLS signature).
THRESHOLD_SIGNATURE_SIZE = 48
#: Wire size of one partial share.
PARTIAL_SIGNATURE_SIZE = 48


class ThresholdError(ValueError):
    """Raised when share combination is attempted with insufficient shares."""


@dataclass(frozen=True)
class PartialSignature:
    """A single signer's share over ``message_digest``."""

    signer: int
    message_digest: bytes
    share: bytes

    def wire_size(self) -> int:
        return PARTIAL_SIGNATURE_SIZE + 8


@dataclass(frozen=True)
class ThresholdSignature:
    """A combined certificate proving ``threshold`` signers signed the digest."""

    message_digest: bytes
    signers: FrozenSet[int]
    proof: bytes

    def wire_size(self) -> int:
        return THRESHOLD_SIGNATURE_SIZE + 8

    def __len__(self) -> int:
        return len(self.signers)


register(PartialSignature, 0x30, signer=INT, message_digest=BYTES, share=BYTES)
register(
    ThresholdSignature, 0x31, message_digest=BYTES, signers=frozenset_of(INT), proof=BYTES
)


class ThresholdScheme:
    """(t, n) threshold signature scheme over a fixed signer group."""

    def __init__(self, key_store: KeyStore, signers: Iterable[int], threshold: int):
        self.key_store = key_store
        self.signers: Tuple[int, ...] = tuple(sorted(set(signers)))
        if threshold < 1 or threshold > len(self.signers):
            raise ThresholdError(
                f"threshold {threshold} out of range for {len(self.signers)} signers"
            )
        self.threshold = threshold

    # -------------------------------------------------------------- signing
    def sign_share(self, signer: int, message_digest: bytes) -> PartialSignature:
        if signer not in self.signers:
            raise ThresholdError(f"{signer} is not a registered signer")
        share = self.key_store.sign(signer, b"threshold:" + message_digest)[:PARTIAL_SIGNATURE_SIZE]
        return PartialSignature(signer=signer, message_digest=message_digest, share=share)

    def verify_share(self, partial: PartialSignature) -> bool:
        if partial.signer not in self.signers:
            return False
        expected = self.key_store.sign(
            partial.signer, b"threshold:" + partial.message_digest
        )[:PARTIAL_SIGNATURE_SIZE]
        return expected == partial.share

    # ------------------------------------------------------------- combining
    def combine(self, shares: Iterable[PartialSignature]) -> ThresholdSignature:
        """Combine valid shares over the same digest into one certificate."""
        valid: Dict[int, PartialSignature] = {}
        digest = None
        for share in shares:
            if digest is None:
                digest = share.message_digest
            if share.message_digest != digest:
                continue
            if self.verify_share(share):
                valid[share.signer] = share
        if digest is None or len(valid) < self.threshold:
            raise ThresholdError(
                f"need {self.threshold} valid shares, got {len(valid)}"
            )
        signer_set = frozenset(valid.keys())
        proof = sha256(
            digest,
            b"|".join(str(s).encode() for s in sorted(signer_set)),
            b"combined",
        )
        return ThresholdSignature(message_digest=digest, signers=signer_set, proof=proof)

    def verify(self, signature: ThresholdSignature, message_digest: bytes) -> bool:
        """Verify a combined certificate against a message digest."""
        if signature.message_digest != message_digest:
            return False
        if len(signature.signers) < self.threshold:
            return False
        if not signature.signers.issubset(set(self.signers)):
            return False
        expected = sha256(
            message_digest,
            b"|".join(str(s).encode() for s in sorted(signature.signers)),
            b"combined",
        )
        return expected == signature.proof
