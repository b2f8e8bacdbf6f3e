"""The codec every live message and WAL record goes through (repro.runtime.codec).

* every registered type round-trips, for inputs built from its own schema,
  to an equal object whose re-encoding is the same bytes;
* malformed input — truncation at every offset, random bytes, an unknown
  tag or version, a length or count past the end, trailing bytes — raises
  ``CodecError`` and nothing else;
* derived values are recomputed by the receiver, never taken from the
  sender (a forged ``_mix`` or ``_digest`` does not survive the trip);
* completeness: every message the PBFT, HotStuff and Raft crash-restart
  scenarios and a membership change actually send, and every WAL record
  they append, encodes and decodes to an equal object.
"""

import dataclasses
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.app.kv  # noqa: F401  (registers the KV operations and KVResultMsg)
import repro.core.iss  # noqa: F401  (registers the ISS messages)
import repro.hotstuff.messages  # noqa: F401
import repro.pbft.messages  # noqa: F401
import repro.raft.messages  # noqa: F401
import repro.storage.wal  # noqa: F401  (registers WalRecord)
from repro.core.config import PROTOCOL_HOTSTUFF, PROTOCOL_PBFT, PROTOCOL_RAFT
from repro.core.messages import ClientResponseBatchMsg, InstanceMessage
from repro.core.types import NIL, Batch, CheckpointCertificate, Request, RequestId
from repro.harness import scenarios
from repro.pbft.messages import PrePrepare, Prepare
from repro.runtime import codec
from repro.runtime.codec import CODEC_VERSION, CodecError, decode, encode
from repro.runtime.faults import MEMBER_ADD, MembershipSpec
from repro.sim.network import Network
from repro.storage.wal import RECORD_COMMIT, WalRecord, WriteAheadLog
from tests.test_recovery_integration import build_crash_restart_deployment

REGISTERED = codec.registered_types()


# ------------------------------------------------------- schema strategies
def _has_any(kind) -> bool:
    return kind.name == "any" or any(
        _has_any(arg) for arg in kind.args if isinstance(arg, codec.Kind)
    ) or any(
        _has_any(field_kind)
        for arg in kind.args
        if isinstance(arg, type)
        for _name, field_kind in codec.schema(arg)
    )


#: Types an ``ANY`` field draws from: everything whose schema holds no
#: ``ANY`` itself, so generated messages stay finite.
LEAF_TYPES = [
    cls for cls in REGISTERED if not any(_has_any(kind) for _n, kind in codec.schema(cls))
]


def kind_strategy(kind):
    name = kind.name
    if name == "int":
        return st.integers(-(2**63), 2**63 - 1)
    if name == "bool":
        return st.booleans()
    if name == "bytes":
        return st.binary(max_size=40)
    if name == "str":
        return st.text(max_size=20)
    if name == "optional":
        return st.none() | kind_strategy(kind.args[0])
    if name == "tuple_of":
        return st.lists(kind_strategy(kind.args[0]), max_size=3).map(tuple)
    if name == "frozenset_of":
        return st.frozensets(kind_strategy(kind.args[0]), max_size=4)
    if name == "fixed_tuple":
        return st.tuples(*(kind_strategy(arg) for arg in kind.args))
    if name == "nested":
        return instances(kind.args[0])
    if name == "one_of":
        return st.one_of(*(instances(cls) for cls in kind.args))
    assert name == "any", kind
    return st.sampled_from(LEAF_TYPES).flatmap(instances)


def instances(cls):
    """Arbitrary instances of a registered type, from its schema."""
    if not dataclasses.is_dataclass(cls):
        return st.just(cls())  # a singleton (NIL)
    return st.builds(
        cls, **{name: kind_strategy(kind) for name, kind in codec.schema(cls)}
    )


def test_every_wire_and_wal_type_is_registered():
    names = {cls.__name__ for cls in REGISTERED}
    assert names >= {
        "PrePrepare", "Prepare", "Commit", "PreparedProof", "ViewChange", "NewView",
        "QuorumCertificate", "Block", "Proposal", "Vote", "NewRound",
        "RaftEntry", "AppendEntries", "AppendReply", "RequestVote", "VoteReply",
        "InstanceMessage", "MessageBatchMsg", "ClientRequestMsg", "ClientResponseMsg",
        "ClientResponseBatchMsg", "BucketAssignmentMsg", "KVResultMsg", "CheckpointMsg",
        "KVPut", "KVGet", "KVCas",
        "StateRequest", "StateResponse", "WalRecord", "Request", "RequestId", "Batch",
        "Nil", "CheckpointCertificate", "PartialSignature", "ThresholdSignature",
    }


@pytest.mark.parametrize("cls", REGISTERED, ids=lambda cls: cls.__name__)
def test_every_registered_type_round_trips(cls):
    @settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
    @given(instances(cls))
    def check(message):
        body = encode(message)
        decoded = decode(body)
        assert type(decoded) is type(message)
        assert decoded == message
        assert encode(decoded) == body

    check()


# ---------------------------------------------------------- malformed input
def _samples():
    requests = tuple(
        Request(RequestId(client=7, timestamp=t), payload=b"p" * t, signature=b"s" * 8)
        for t in range(3)
    )
    batch = Batch(requests)
    return [
        InstanceMessage((2, 1), PrePrepare(view=0, sn=5, value=batch, digest=b"d" * 32)),
        InstanceMessage((2, 1), Prepare(view=0, sn=5, digest=b"d" * 32)),
        ClientResponseBatchMsg(client=7, entries=tuple((r.rid, 3) for r in requests), node=1),
        WalRecord(RECORD_COMMIT, epoch=2, sn=5, entry=batch),
        WalRecord(
            "checkpoint", epoch=2, sn=5,
            certificate=CheckpointCertificate(2, 5, b"root", ((0, b"a"), (1, b"b"))),
        ),
        WalRecord(RECORD_COMMIT, epoch=2, sn=6, entry=NIL),
        repro.app.kv.KVCas(key="k", expected="κ", value="v" * 5),
    ]


SAMPLES = _samples()


def _unknown_tag() -> int:
    for tag in range(256):
        try:
            decode(bytes((CODEC_VERSION, tag)))
        except CodecError as error:
            if "unknown type tag" in str(error):
                return tag
    raise AssertionError("every tag is registered")


FREE_TAG = _unknown_tag()


def _rejects(body) -> None:
    with pytest.raises(CodecError):
        decode(body)


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_every_truncation_is_rejected(message):
    body = encode(message)
    for cut in range(len(body)):
        _rejects(body[:cut])


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_trailing_bytes_unknown_version_and_unknown_tag_are_rejected(message):
    body = encode(message)
    _rejects(body + b"\x00")
    _rejects(bytes((CODEC_VERSION + 1,)) + body[1:])
    _rejects(bytes((0x80,)) + body[1:])  # the first byte of a pickle
    _rejects(body[:1] + bytes((FREE_TAG,)) + body[2:])
    # The same body decodes from inside a larger buffer, and only there.
    framed = b"junk" + body + b"more"
    assert decode(framed, 4, 4 + len(body)) == message
    _rejects(framed)


def test_lengths_and_counts_past_the_end_are_rejected():
    body = bytearray(encode(Prepare(view=0, sn=1, digest=b"d" * 32)))
    # version, tag, view (8), sn (8), then the digest's 4-byte length.
    body[18:22] = struct.pack(">I", 0xFFFFFFFF)
    _rejects(bytes(body))
    batch = bytearray(encode(Batch((Request(RequestId(1, 1), b"x"),))))
    batch[2:6] = struct.pack(">I", 0xFFFFFFFF)  # the request count
    _rejects(bytes(batch))
    flagged = bytearray(encode(WalRecord(RECORD_COMMIT, epoch=0, sn=0, entry=NIL)))
    entry_flag = 2 + 4 + len(RECORD_COMMIT) + 16
    flagged[entry_flag] = 7  # an optional's flag is 0 or 1
    _rejects(bytes(flagged))


def test_a_union_field_refuses_types_outside_it():
    body = encode(PrePrepare(view=0, sn=1, value=NIL, digest=b""))
    nil_tag = body[2 + 16 + 1]
    prepare_tag = encode(Prepare(0, 0, b""))[1]
    assert nil_tag != prepare_tag
    forged = body[: 2 + 16 + 1] + bytes((prepare_tag,)) + encode(Prepare(0, 0, b""))[2:]
    _rejects(forged + body[2 + 16 + 2:])


def test_invalid_utf8_is_rejected():
    body = bytearray(encode(WalRecord("commit", epoch=0, sn=0)))
    body[2 + 4] = 0xFF  # first byte of the kind string
    _rejects(bytes(body))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64), st.sampled_from(SAMPLES))
def test_random_bytes_raise_codec_error_and_nothing_else(noise, message):
    body = encode(message)
    for candidate in (noise, body[:2] + noise, body[: len(body) // 2] + noise):
        try:
            decode(candidate)
        except CodecError:
            pass


def test_unencodable_objects_raise_codec_error():
    for value in ("text", ("tuple",), object(), Prepare(view="x", sn=0, digest=b"")):
        with pytest.raises(CodecError):
            encode(value)
    with pytest.raises(CodecError):
        encode(Prepare(view=2**63, sn=0, digest=b""))  # outside INT


# ------------------------------------------------------------ derived values
def test_a_forged_cache_does_not_survive_the_trip():
    rid = RequestId(client=11, timestamp=42)
    honest = RequestId(client=11, timestamp=42)
    object.__setattr__(rid, "_mix", 0)  # a sender steering bucket placement
    object.__setattr__(rid, "_hash", 0)
    request = Request(rid=rid, payload=b"op", signature=b"sig")
    object.__setattr__(request, "_digest", b"forged" * 5)
    decoded = decode(encode(Batch((request,))))
    received = decoded.requests[0]
    assert received.rid._mix == honest._mix and hash(received.rid) == hash(honest)
    assert "_digest" not in vars(received) and "_digest" not in vars(decoded)
    assert received.digest() == Request(honest, b"op", b"sig").digest()


# --------------------------------------------------------------- completeness
class _Recorder:
    """Every distinct message sent and WAL record appended during a run."""

    def __init__(self, monkeypatch):
        self.seen = {}
        recorder = self
        send, multicast, append = Network.send, Network.multicast, WriteAheadLog._append

        def recording_send(network, src, dst, message, *args, **kwargs):
            recorder.seen[id(message)] = message
            return send(network, src, dst, message, *args, **kwargs)

        def recording_multicast(network, src, dsts, message):
            recorder.seen[id(message)] = message
            return multicast(network, src, dsts, message)

        def recording_append(wal, record):
            recorder.seen[id(record)] = record
            return append(wal, record)

        monkeypatch.setattr(Network, "send", recording_send)
        monkeypatch.setattr(Network, "multicast", recording_multicast)
        monkeypatch.setattr(WriteAheadLog, "_append", recording_append)

    def check(self):
        """Round-trip everything recorded; return the names of the types
        seen, envelopes' payloads included."""
        names = set()
        for message in self.seen.values():
            decoded = decode(encode(message))
            assert type(decoded) is type(message) and decoded == message, message
            names.add(type(message).__name__)
            if isinstance(message, InstanceMessage):
                names.add(type(message.payload).__name__)
        return names


@pytest.mark.parametrize(
    "protocol, expected",
    [
        (PROTOCOL_PBFT, {"PrePrepare", "Prepare", "Commit"}),
        (PROTOCOL_HOTSTUFF, {"Proposal", "Vote", "NewRound"}),
        (PROTOCOL_RAFT, {"AppendEntries", "AppendReply"}),
    ],
)
def test_crash_restart_traffic_round_trips(monkeypatch, protocol, expected):
    recorder = _Recorder(monkeypatch)
    build_crash_restart_deployment(protocol, crash_time=4.0, restart_time=9.0, duration=14.0).run()
    seen = recorder.check()
    assert seen >= expected | {
        "InstanceMessage", "ClientRequestMsg", "CheckpointMsg",
        "StateRequest", "StateResponse", "WalRecord",
    }, seen


def test_membership_change_traffic_round_trips(monkeypatch):
    recorder = _Recorder(monkeypatch)
    scenarios.deployment(
        PROTOCOL_PBFT, 4, [MembershipSpec(node=4, action=MEMBER_ADD, time=2.0)],
        rate=300.0, duration=8.0, drain_time=6.0,
        epoch_length=scenarios.DEFAULT_MEMBERSHIP_EPOCH_LENGTH, **scenarios.GRACEFUL,
    ).run()
    seen = recorder.check()
    assert {"BucketAssignmentMsg", "ClientResponseBatchMsg", "StateResponse"} <= seen, seen
