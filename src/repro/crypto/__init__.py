"""Simulated cryptography: signatures, Merkle trees, threshold signatures."""

from .hashing import sha256, hash_int, combine_digests
from .signatures import KeyStore, KeyPair, SignatureError, SIGNATURE_SIZE
from .merkle import MerkleTree, MerkleProof, merkle_root
from .threshold import (
    ThresholdScheme,
    ThresholdSignature,
    PartialSignature,
    ThresholdError,
)

__all__ = [
    "sha256",
    "hash_int",
    "combine_digests",
    "KeyStore",
    "KeyPair",
    "SignatureError",
    "SIGNATURE_SIZE",
    "MerkleTree",
    "MerkleProof",
    "merkle_root",
    "ThresholdScheme",
    "ThresholdSignature",
    "PartialSignature",
    "ThresholdError",
]
