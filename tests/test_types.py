"""Unit tests for core data types."""

import pytest

from repro.core.types import (
    Batch,
    CheckpointCertificate,
    DeliveredRequest,
    NIL,
    Nil,
    Request,
    RequestId,
    SegmentDescriptor,
    is_nil,
)
from tests.conftest import make_request


class TestRequest:
    def test_identity_fields(self):
        request = make_request(client=7, timestamp=3, payload=b"abc")
        assert request.client == 7
        assert request.timestamp == 3
        assert request.rid == RequestId(client=7, timestamp=3)

    def test_equal_requests_have_equal_digests(self):
        a = make_request(client=1, timestamp=2, payload=b"x")
        b = make_request(client=1, timestamp=2, payload=b"x")
        assert a.digest() == b.digest()

    def test_digest_differs_with_payload(self):
        a = make_request(payload=b"x")
        b = make_request(payload=b"y")
        assert a.digest() != b.digest()

    def test_digest_differs_with_identity(self):
        a = make_request(client=1, timestamp=1)
        b = make_request(client=1, timestamp=2)
        assert a.digest() != b.digest()

    def test_digest_is_cached_and_stable(self):
        request = make_request(payload=b"payload")
        assert request.digest() is request.digest()

    def test_size_includes_payload_and_signature(self):
        request = Request(rid=RequestId(0, 0), payload=b"x" * 100, signature=b"s" * 64)
        assert request.size_bytes() == 100 + 16 + 64

    def test_request_id_ordering(self):
        assert RequestId(0, 1) < RequestId(0, 2) < RequestId(1, 0)


class TestBatch:
    def test_len_and_iteration(self):
        requests = [make_request(timestamp=i) for i in range(3)]
        batch = Batch.of(requests)
        assert len(batch) == 3
        assert list(batch) == requests

    def test_empty_batch_is_truthy_but_distinct_from_nil(self):
        batch = Batch.of(())
        assert batch
        assert not is_nil(batch)
        assert not NIL

    def test_batch_digest_depends_on_order(self):
        a, b = make_request(timestamp=1), make_request(timestamp=2)
        assert Batch.of([a, b]).digest() != Batch.of([b, a]).digest()

    def test_batch_digest_deterministic(self):
        requests = [make_request(timestamp=i) for i in range(5)]
        assert Batch.of(requests).digest() == Batch.of(list(requests)).digest()

    def test_batch_size_bytes(self):
        requests = [make_request(timestamp=i, payload=b"p" * 10) for i in range(4)]
        batch = Batch.of(requests)
        assert batch.size_bytes() == 32 + sum(r.size_bytes() for r in requests)


class TestNil:
    def test_nil_is_singleton(self):
        assert Nil() is NIL

    def test_is_nil(self):
        assert is_nil(NIL)
        assert not is_nil(Batch.of(()))
        assert not is_nil(None)

    def test_nil_digest_stable(self):
        assert NIL.digest() == Nil().digest()


class TestSegmentDescriptor:
    def test_instance_id_and_membership(self):
        segment = SegmentDescriptor(epoch=2, leader=1, seq_nrs=(1, 4, 7), buckets=(0, 3))
        assert segment.instance_id == (2, 1)
        assert 4 in segment
        assert 5 not in segment
        assert len(segment) == 3


class TestCheckpointCertificate:
    def test_signers(self):
        certificate = CheckpointCertificate(
            epoch=1, last_sn=15, log_root=b"r", signatures=((0, b"a"), (2, b"b"))
        )
        assert list(certificate.signers()) == [0, 2]


class TestCachedHashing:
    def test_request_id_hash_matches_field_tuple(self):
        rid = RequestId(client=3, timestamp=7)
        assert hash(rid) == hash((3, 7))
        assert rid == RequestId(client=3, timestamp=7)

    def test_request_hash_stable_and_equal_for_copies(self):
        a = Request(rid=RequestId(1, 2), payload=b"x", signature=b"s")
        b = Request(rid=RequestId(1, 2), payload=b"x", signature=b"s")
        assert hash(a) == hash(b)
        assert a == b
        assert len({a, b}) == 1

    def test_segment_bucket_set_cached(self):
        segment = SegmentDescriptor(epoch=0, leader=0, seq_nrs=(0,), buckets=(1, 5))
        assert segment.bucket_set() == frozenset({1, 5})
        assert segment.bucket_set() is segment.bucket_set()


class TestCachesStayInTheirProcess:
    """Derived caches (``_hash``, ``_digest``, ``_size``) are rebuilt by the
    loader, never shipped: a hash is only valid under the hash seed that
    computed it, and a digest is only worth what its sender is."""

    def test_pickle_carries_constructor_fields_only(self):
        import pickle

        request = Request(rid=RequestId(1, 2), payload=b"payload", signature=b"sig")
        batch = Batch.of([request])
        cold = pickle.dumps(batch)
        hash(request), request.digest(), batch.digest(), batch.size_bytes()
        assert pickle.dumps(batch) == cold
        loaded = pickle.loads(cold)
        assert loaded == batch
        assert set(loaded.__dict__) == {"requests"}
        assert set(loaded.requests[0].__dict__) == {"rid", "payload", "signature"}
        # The request id's caches are recomputed by its constructor.
        assert hash(loaded.requests[0].rid) == hash(request.rid)
        assert loaded.requests[0].rid._mix == request.rid._mix

    def test_forged_digest_is_ignored_after_a_round_trip(self):
        import pickle

        honest = Request(rid=RequestId(1, 2), payload=b"pay alice")
        forged = Request(rid=RequestId(1, 2), payload=b"pay mallory")
        object.__setattr__(forged, "_digest", honest.digest())
        batch = Batch.of([forged])
        object.__setattr__(batch, "_digest", Batch.of([honest]).digest())
        assert batch.digest() == Batch.of([honest]).digest()  # the sender's lie
        received = pickle.loads(pickle.dumps(batch))
        assert received.requests[0].digest() != honest.digest()
        assert received.digest() != Batch.of([honest]).digest()
        assert received.digest() == Batch.of([Request(RequestId(1, 2), b"pay mallory")]).digest()

    def test_round_trip_under_another_hash_seed_keeps_set_membership(self):
        import os
        import subprocess
        import sys

        def run(seed: str, script: str, stdin: str = "") -> str:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            return subprocess.run(
                [sys.executable, "-c", script],
                input=stdin, capture_output=True, text=True, check=True, env=env,
            ).stdout.strip()

        build = (
            "from repro.core.types import Request, RequestId\n"
            "r = Request(RequestId(1, 2), b'payload', b'sig')\n"
        )
        sent = run("1", build + "import pickle\nhash(r)\nprint(pickle.dumps(r).hex())")
        verdict = run(
            "2",
            build
            + "import pickle, sys\n"
            + "received = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            + "print(received == r, r in {received}, hash(received) == hash(r))",
            stdin=sent,
        )
        assert verdict == "True True True"


class TestDeliveredRequestContract:
    def test_hashable_and_frozen(self):
        import pytest as _pytest
        from dataclasses import FrozenInstanceError

        item = DeliveredRequest(
            request=Request(rid=RequestId(0, 0)), sn=0, batch_sn=0, epoch=0, delivered_at=1.0
        )
        assert len({item, item}) == 1  # usable in sets/dicts
        with _pytest.raises(FrozenInstanceError):
            item.sn = 99
