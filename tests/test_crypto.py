"""Unit tests for the simulated cryptography (signatures, Merkle, threshold)."""

import pytest

from repro.crypto.hashing import combine_digests, hash_int, sha256
from repro.crypto.merkle import MerkleTree, merkle_root
from repro.crypto.signatures import SIGNATURE_SIZE, KeyStore, SignatureError
from repro.crypto.threshold import PartialSignature, ThresholdError, ThresholdScheme


class TestHashing:
    def test_sha256_concatenates_parts(self):
        assert sha256(b"ab", b"c") == sha256(b"abc")

    def test_hash_int_roundtrip_width(self):
        assert len(hash_int(5)) == 8
        assert hash_int(5) != hash_int(6)

    def test_combine_digests_order_sensitive(self):
        a, b = sha256(b"a"), sha256(b"b")
        assert combine_digests([a, b]) != combine_digests([b, a])


class TestKeyStore:
    def test_sign_verify_roundtrip(self):
        ks = KeyStore(deployment_seed=1)
        sig = ks.sign(3, b"message")
        assert len(sig) == SIGNATURE_SIZE
        assert ks.verify(3, b"message", sig)

    def test_wrong_identity_fails(self):
        ks = KeyStore()
        sig = ks.sign(1, b"m")
        assert not ks.verify(2, b"m", sig)

    def test_wrong_message_fails(self):
        ks = KeyStore()
        sig = ks.sign(1, b"m")
        assert not ks.verify(1, b"other", sig)

    def test_truncated_signature_fails(self):
        ks = KeyStore()
        sig = ks.sign(1, b"m")
        assert not ks.verify(1, b"m", sig[:10])

    def test_verify_or_raise(self):
        ks = KeyStore()
        with pytest.raises(SignatureError):
            ks.verify_or_raise(1, b"m", b"bogus" * 13)

    def test_repeated_verify_is_memoized(self):
        """Re-verifying the same (identity, message) pair must not re-run the
        HMAC: the expected tag is cached after the first verification."""
        ks = KeyStore(deployment_seed=1)
        sig = ks.sign(3, b"message")
        assert ks.verify(3, b"message", sig)
        assert (3, b"message") in ks._expected
        # Cached path still rejects a different signature for the same pair.
        bad = bytearray(sig)
        bad[0] ^= 0xFF
        assert not ks.verify(3, b"message", bytes(bad))


class TestVerifyDigest:
    def _signed(self, ks, identity=1, message=b"payload-bytes"):
        from repro.crypto.hashing import sha256

        signature = ks.sign(identity, message)
        return sha256(message), message, signature

    def test_verify_digest_roundtrip(self):
        ks = KeyStore(deployment_seed=2)
        digest, message, sig = self._signed(ks)
        assert ks.verify_digest(1, digest, sig, lambda: message)

    def test_verify_digest_memoizes_outcome(self):
        ks = KeyStore(deployment_seed=2)
        digest, message, sig = self._signed(ks)
        calls = []

        def build():
            calls.append(1)
            return message

        assert ks.verify_digest(1, digest, sig, build)
        assert ks.verify_digest(1, digest, sig, build)
        assert ks.verify_digest(1, digest, sig, build)
        # The message was only materialised on the cache miss.
        assert len(calls) == 1

    def test_forged_signature_rejected_every_time_and_never_memoized(self):
        """A failure is recomputed on every sighting and leaves no entry, so
        a forger can neither fill the memo nor ride on an earlier check."""
        ks = KeyStore(deployment_seed=2)
        digest, message, _sig = self._signed(ks)
        forged = b"\x00" * SIGNATURE_SIZE
        calls = []

        def build():
            calls.append(1)
            return message

        for _ in range(3):
            assert not ks.verify_digest(1, digest, forged, build)
        assert len(calls) == 3
        assert not ks._verified

    def test_forget_digest_drops_the_entry(self):
        """After forget_digest the next check recomputes; forgetting an
        absent entry is a no-op."""
        ks = KeyStore(deployment_seed=2)
        digest, message, sig = self._signed(ks)
        calls = []

        def build():
            calls.append(1)
            return message

        assert ks.verify_digest(1, digest, sig, build)
        ks.forget_digest(1, digest, sig)
        ks.forget_digest(1, digest, sig)
        assert not ks._verified
        assert ks.verify_digest(1, digest, sig, build)
        assert len(calls) == 2

    def test_forget_drops_a_verify_entry(self):
        ks = KeyStore(deployment_seed=2)
        sig = ks.sign(3, b"vote")
        assert ks.verify(3, b"vote", sig)
        ks.forget(3, b"vote")
        ks.forget(3, b"vote")
        assert not ks._expected
        assert ks.verify(3, b"vote", sig)

    def test_verify_digest_distinguishes_signatures(self):
        """Two signatures over the same digest are cached independently."""
        ks = KeyStore(deployment_seed=2)
        digest, message, good = self._signed(ks)
        other = ks.sign(2, message)  # valid tag, wrong identity
        assert ks.verify_digest(1, digest, good, lambda: message)
        assert not ks.verify_digest(1, digest, other, lambda: message)

    def test_deterministic_per_seed(self):
        assert KeyStore(5).sign(1, b"m") == KeyStore(5).sign(1, b"m")
        assert KeyStore(5).sign(1, b"m") != KeyStore(6).sign(1, b"m")

    def test_public_keys_differ_per_identity(self):
        ks = KeyStore()
        assert ks.public_key(1) != ks.public_key(2)


class TestMerkle:
    def test_root_changes_with_leaves(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"a", b"c"])

    def test_root_changes_with_order(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_empty_tree_has_stable_root(self):
        assert merkle_root([]) == merkle_root([])

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 13])
    def test_proof_verifies_for_every_leaf(self, count):
        leaves = [sha256(bytes([i])) for i in range(count)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            proof = tree.proof(index)
            assert MerkleTree.verify(tree.root, leaf, proof)

    def test_proof_fails_for_wrong_leaf(self):
        leaves = [sha256(bytes([i])) for i in range(4)]
        tree = MerkleTree(leaves)
        proof = tree.proof(1)
        assert not MerkleTree.verify(tree.root, sha256(b"not-a-leaf"), proof)

    def test_proof_fails_against_wrong_root(self):
        leaves = [sha256(bytes([i])) for i in range(4)]
        tree = MerkleTree(leaves)
        other = MerkleTree([sha256(b"x")])
        assert not MerkleTree.verify(other.root, leaves[0], tree.proof(0))

    def test_proof_index_out_of_range(self):
        tree = MerkleTree([sha256(b"a")])
        with pytest.raises(IndexError):
            tree.proof(5)


class TestThreshold:
    def make_scheme(self, n=4, t=3):
        ks = KeyStore(deployment_seed=2)
        return ThresholdScheme(ks, range(n), t)

    def test_combine_and_verify(self):
        scheme = self.make_scheme()
        digest = sha256(b"block")
        shares = [scheme.sign_share(i, digest) for i in range(3)]
        combined = scheme.combine(shares)
        assert scheme.verify(combined, digest)
        assert len(combined) == 3

    def test_insufficient_shares_rejected(self):
        scheme = self.make_scheme()
        digest = sha256(b"block")
        shares = [scheme.sign_share(i, digest) for i in range(2)]
        with pytest.raises(ThresholdError):
            scheme.combine(shares)

    def test_mismatched_digests_not_counted(self):
        scheme = self.make_scheme()
        shares = [scheme.sign_share(i, sha256(b"a")) for i in range(2)]
        shares.append(scheme.sign_share(2, sha256(b"b")))
        with pytest.raises(ThresholdError):
            scheme.combine(shares)

    def test_forged_share_rejected(self):
        scheme = self.make_scheme()
        digest = sha256(b"block")
        forged = PartialSignature(signer=0, message_digest=digest, share=b"x" * 48)
        assert not scheme.verify_share(forged)

    def test_verify_fails_for_other_digest(self):
        scheme = self.make_scheme()
        digest = sha256(b"block")
        combined = scheme.combine([scheme.sign_share(i, digest) for i in range(3)])
        assert not scheme.verify(combined, sha256(b"other"))

    def test_unknown_signer_rejected(self):
        scheme = self.make_scheme()
        with pytest.raises(ThresholdError):
            scheme.sign_share(99, sha256(b"d"))

    def test_threshold_bounds_validated(self):
        ks = KeyStore()
        with pytest.raises(ThresholdError):
            ThresholdScheme(ks, range(4), 0)
        with pytest.raises(ThresholdError):
            ThresholdScheme(ks, range(4), 5)
