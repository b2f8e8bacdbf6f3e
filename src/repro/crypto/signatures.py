"""Simulated public-key signatures.

The paper uses 256-bit ECDSA for client request signatures and signed
protocol messages (checkpoints, view changes).  Real elliptic-curve
cryptography is irrelevant to reproducing the *protocol* behaviour, so this
module provides deterministic hash-based stand-ins with the same interface
and failure modes:

* a signature produced by key ``k`` over message ``m`` verifies only against
  ``k`` and ``m`` (no forgery inside the simulation),
* signatures have a realistic wire size (64 bytes, matching ECDSA P-256).

This is a substitution documented in docs/ARCHITECTURE.md, "Model and substitutions".
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Set, Tuple

#: Wire size of a simulated signature (matches ECDSA P-256).
SIGNATURE_SIZE = 64


class SignatureError(ValueError):
    """Raised when signature verification fails in strict contexts."""


@dataclass(frozen=True)
class KeyPair:
    """A simulated key pair.

    The "private key" is a random-looking secret derived from the identity
    and a deployment seed; the "public key" is its hash.  Only the KeyStore
    can sign for an identity, so unforgeability holds within a simulation.
    """

    identity: int
    secret: bytes
    public: bytes


class KeyStore:
    """Deployment-wide registry of key pairs, indexed by process identity.

    Nodes and clients share one key store per deployment (standing in for the
    PKI assumed in Section 2.1).  Verification only needs the public half, so
    adversarial code paths cannot mint signatures for identities they do not
    own as long as they only call :meth:`verify`.  Callers drop a memo entry
    once nothing will ask again (a request delivered, a checkpoint epoch
    stable), so the memos are bounded by in-flight work, not by uptime.
    """

    def __init__(self, deployment_seed: int = 0):
        self._seed = deployment_seed
        self._keys: Dict[int, KeyPair] = {}
        #: Expected signature per (identity, message), populated by
        #: :meth:`verify` (protocol messages such as checkpoints, which every
        #: node re-verifies): the HMAC is computed once and re-verifications
        #: reduce to a dict hit + constant-time comparison.  Sound because
        #: signing here is deterministic.  The request path goes through
        #: :meth:`verify_digest` instead, which memoizes only the outcome and
        #: never retains message bytes.
        self._expected: Dict[Tuple[int, bytes], bytes] = {}
        #: The one request-verification cache: (identity, digest, signature)
        #: of every verified, not yet delivered request.  Failures are not
        #: kept, so forgeries cannot fill it.
        self._verified: Set[Tuple[int, bytes, bytes]] = set()

    def _derive(self, identity: int) -> KeyPair:
        seed_material = self._seed.to_bytes(8, "little", signed=True) + identity.to_bytes(
            8, "little", signed=True
        )
        secret = hashlib.sha256(b"secret:" + seed_material).digest()
        public = hashlib.sha256(b"public:" + secret).digest()
        return KeyPair(identity=identity, secret=secret, public=public)

    def key_for(self, identity: int) -> KeyPair:
        if identity not in self._keys:
            self._keys[identity] = self._derive(identity)
        return self._keys[identity]

    def public_key(self, identity: int) -> bytes:
        return self.key_for(identity).public

    # ------------------------------------------------------------------ api
    def sign(self, identity: int, message: bytes) -> bytes:
        """Sign ``message`` with ``identity``'s key; returns a 64-byte tag."""
        key = self.key_for(identity)
        mac = hmac.new(key.secret, message, hashlib.sha256).digest()
        # Pad to the ECDSA-like wire size so bandwidth accounting is honest.
        return mac + hashlib.sha256(mac).digest()

    def verify(self, identity: int, message: bytes, signature: bytes) -> bool:
        """Check that ``signature`` was produced by ``identity`` over ``message``."""
        if len(signature) != SIGNATURE_SIZE:
            return False
        key = (identity, message)
        expected = self._expected.get(key)
        if expected is None:
            expected = self.sign(identity, message)
            self._expected[key] = expected
        return hmac.compare_digest(expected, signature)

    def verify_digest(
        self,
        identity: int,
        digest: bytes,
        signature: bytes,
        message_fn: Callable[[], bytes],
    ) -> bool:
        """Memoized verification keyed by ``(identity, digest, signature)``.

        ``digest`` must be a collision-resistant digest of the signed message
        (e.g. :meth:`repro.core.types.Request.digest`); ``message_fn`` builds
        the full message bytes and is only invoked on a cache miss.  Repeated
        verification of the same request — on reception, inside proposals,
        across all validators sharing this key store — costs one set lookup
        until :meth:`forget_digest`.
        """
        key = (identity, digest, signature)
        if key in self._verified:
            return True
        # Compute directly instead of going through :meth:`verify`: the
        # outcome memo makes an (identity, message) entry unreachable, so
        # caching the full message bytes there would be pure retention.
        if len(signature) != SIGNATURE_SIZE or not hmac.compare_digest(
            self.sign(identity, message_fn()), signature
        ):
            return False
        self._verified.add(key)
        return True

    def forget_digest(self, identity: int, digest: bytes, signature: bytes) -> None:
        """Drop a :meth:`verify_digest` memo entry (no-op when absent)."""
        self._verified.discard((identity, digest, signature))

    def forget(self, identity: int, message: bytes) -> None:
        """Drop a :meth:`verify` memo entry (no-op when absent)."""
        self._expected.pop((identity, message), None)

    def verify_or_raise(self, identity: int, message: bytes, signature: bytes) -> None:
        if not self.verify(identity, message, signature):
            raise SignatureError(f"bad signature for identity {identity}")
