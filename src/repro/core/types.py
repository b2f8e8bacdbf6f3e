"""Core data types shared across the ISS reproduction.

The paper (Section 2.1) models a client request as ``r = (o, id)`` where
``o`` is an opaque payload and ``id = (t, c)`` combines a per-client logical
timestamp ``t`` with the client identity ``c``.  Requests are grouped into
*batches*, which are the unit of agreement: each log position (sequence
number) holds exactly one batch (or the special ``NIL`` value when the
Sequenced Broadcast instance aborted that position).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from ..runtime.codec import (
    BYTES,
    INT,
    fixed_tuple,
    nested,
    one_of,
    optional,
    register,
    register_singleton,
    tuple_of,
)

# Type aliases used throughout the codebase.  They are plain ints/strings so
# that messages stay cheap to hash and copy inside the simulator.
NodeId = int
ClientId = int
SeqNr = int
EpochNr = int
BucketId = int
ViewNr = int


def request_id_cache(client: ClientId, timestamp: int) -> Tuple[int, int]:
    """``(_hash, _mix)`` of the request id ``(client, timestamp)``.

    The one place both values are computed: at construction and when a
    request id is decoded off the wire or out of a WAL (a sender's cached
    ``_mix`` would put the request into a bucket of its choosing).  The
    mixing constants are shared with :func:`repro.core.buckets.bucket_of`:
    they keep consecutive timestamps of one client out of consecutive
    buckets.
    """
    return (
        hash((client, timestamp)),
        (client * 0x9E3779B1 + timestamp * 0x85EBCA77) & 0xFFFFFFFFFFFFFFFF,
    )


@dataclass(frozen=True, order=True)
class RequestId:
    """Unique request identifier ``(t, c)``.

    ``timestamp`` is the client-local logical timestamp (monotonically
    increasing per client, bounded by the client watermark window) and
    ``client`` is the client identity (an integer standing in for the
    client's public key).

    Request ids key every hot collection in the system (bucket queues,
    the proposal index, validation caches), so the hash and the bucket-mixing
    value are computed once at construction instead of per lookup.
    """

    client: ClientId
    timestamp: int

    def __post_init__(self) -> None:
        rid_hash, mix = request_id_cache(self.client, self.timestamp)
        object.__setattr__(self, "_hash", rid_hash)
        object.__setattr__(self, "_mix", mix)

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # Constructor fields only: the derived values are rebuilt on the
        # loading side instead of crossing a process boundary (a forged
        # ``_mix`` would put the request into a bucket of the sender's
        # choosing).
        return (self.client, self.timestamp)

    def __setstate__(self, state) -> None:
        # The fields go in through ``__dict__`` (as pickle's own default
        # would put them) rather than through the frozen ``__init__``:
        # request ids are the most numerous objects in every frame a node
        # decodes.
        fields = self.__dict__
        fields["client"], fields["timestamp"] = state
        self.__post_init__()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"req(c={self.client},t={self.timestamp})"


@dataclass(frozen=True)
class Request:
    """A client request ``r = (o, id)`` with its signature.

    ``payload`` carries the application operation; ISS never interprets it.
    ``signature`` is produced by :mod:`repro.crypto.signatures` over
    ``(id, payload)`` as described in Section 3.7 of the paper.
    """

    rid: RequestId
    payload: bytes = b""
    signature: bytes = b""

    @property
    def client(self) -> ClientId:
        return self.rid.client

    @property
    def timestamp(self) -> int:
        return self.rid.timestamp

    def size_bytes(self) -> int:
        """Approximate wire size of the request (payload + id + signature)."""
        return len(self.payload) + 16 + len(self.signature)

    def digest(self) -> bytes:
        """Stable digest of the request identity and payload (cached)."""
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        h = hashlib.sha256()
        h.update(self.rid.client.to_bytes(8, "little", signed=False))
        h.update(self.rid.timestamp.to_bytes(8, "little", signed=False))
        h.update(self.payload)
        digest = h.digest()
        object.__setattr__(self, "_digest", digest)
        return digest

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.rid, self.payload))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # Constructor fields only: a pickled ``_hash`` is wrong under another
        # hash seed and a pickled ``_digest`` is whatever the sender says it
        # is, so both are recomputed lazily by whoever loads the request.
        return {"rid": self.rid, "payload": self.payload, "signature": self.signature}


@dataclass(frozen=True)
class Batch:
    """An ordered batch of requests proposed for a single sequence number."""

    requests: Tuple[Request, ...] = ()

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __bool__(self) -> bool:
        # An *empty* batch is still a real batch (it occupies a log slot);
        # truthiness always holds so that ``if batch`` distinguishes batches
        # from ``None``/NIL rather than from emptiness.
        return True

    @staticmethod
    def of(requests: Iterable[Request]) -> "Batch":
        return Batch(tuple(requests))

    def size_bytes(self) -> int:
        """Approximate wire size: request bytes plus a small batch header."""
        cached = self.__dict__.get("_size")
        if cached is not None:
            return cached
        size = 32 + sum(r.size_bytes() for r in self.requests)
        object.__setattr__(self, "_size", size)
        return size

    def digest(self) -> bytes:
        """Stable digest over the contained request digests (cached)."""
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        h = hashlib.sha256()
        h.update(len(self.requests).to_bytes(4, "little"))
        for r in self.requests:
            h.update(r.digest())
        digest = h.digest()
        object.__setattr__(self, "_digest", digest)
        return digest

    def __getstate__(self):
        # Constructor fields only (see :meth:`Request.__getstate__`): the
        # digest followers vote on must be computed from the contents they
        # received, never taken from the proposer's cache.
        return {"requests": self.requests}


class Nil:
    """The special ``⊥`` value Sequenced Broadcast may deliver.

    A singleton: use :data:`NIL` and compare with ``is``.  ``⊥`` fills a log
    position whose designated sender was suspected before proposing, letting
    the epoch terminate (SB Termination) without a real batch.
    """

    _instance: Optional["Nil"] = None

    def __new__(cls) -> "Nil":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NIL"

    def __bool__(self) -> bool:
        return False

    def size_bytes(self) -> int:
        return 1

    def digest(self) -> bytes:
        return hashlib.sha256(b"NIL").digest()


#: Singleton ``⊥`` value delivered by SB when the sender is suspected.
NIL = Nil()

#: A log entry is either a committed batch or the ``⊥`` placeholder.
LogEntry = object  # Batch | Nil -- kept loose for typing simplicity.

register(
    RequestId, 0x10, client=INT, timestamp=INT, derive=(("_hash", "_mix"), request_id_cache)
)
register(Request, 0x11, rid=nested(RequestId), payload=BYTES, signature=BYTES)
register(Batch, 0x12, requests=tuple_of(nested(Request)))
register_singleton(NIL, 0x13)

#: Codec kind of a log-entry field: a batch, ``⊥``, or ``None`` (no entry).
LOG_ENTRY = optional(one_of(Batch, Nil))


def is_nil(entry: object) -> bool:
    """Return True when ``entry`` is the ``⊥`` placeholder."""
    return entry is NIL


@dataclass(frozen=True, slots=True)
class DeliveredRequest:
    """A request delivered by the SMR service with its final order.

    ``sn`` is the per-request sequence number computed by Equation (2) in the
    paper: the global rank of the request across all delivered batches.
    ``batch_sn`` is the log position of the batch the request arrived in.

    One instance is created per request per node per run; ``slots`` keeps
    construction and attribute access cheap while staying frozen/hashable.
    """

    request: Request
    sn: int
    batch_sn: SeqNr
    epoch: EpochNr
    delivered_at: float


@dataclass(frozen=True)
class SegmentDescriptor:
    """Static description of one segment: the unit handed to an SB instance.

    A segment of epoch ``e`` with leader ``i`` is the tuple
    ``(e, i, Seg(e, i), Buckets(e, i))`` from Section 2.3.
    """

    epoch: EpochNr
    leader: NodeId
    seq_nrs: Tuple[SeqNr, ...]
    buckets: Tuple[BucketId, ...]

    @property
    def instance_id(self) -> Tuple[EpochNr, NodeId]:
        """Unique identifier of the SB instance serving this segment."""
        return (self.epoch, self.leader)

    def bucket_set(self) -> frozenset:
        """The segment's buckets as a frozenset (cached; used by the
        per-request membership check in batch validation)."""
        cached = self.__dict__.get("_bucket_set")
        if cached is None:
            cached = frozenset(self.buckets)
            object.__setattr__(self, "_bucket_set", cached)
        return cached

    def __contains__(self, sn: SeqNr) -> bool:
        return sn in self.seq_nrs

    def __len__(self) -> int:
        return len(self.seq_nrs)


@dataclass
class CheckpointCertificate:
    """A stable checkpoint: a strong quorum of matching signed CHECKPOINTs."""

    epoch: EpochNr
    last_sn: SeqNr
    log_root: bytes
    signatures: Tuple[Tuple[NodeId, bytes], ...] = field(default_factory=tuple)

    def signers(self) -> Sequence[NodeId]:
        return [node for node, _sig in self.signatures]


register(
    CheckpointCertificate,
    0x14,
    epoch=INT,
    last_sn=INT,
    log_root=BYTES,
    signatures=tuple_of(fixed_tuple(INT, BYTES)),
)
