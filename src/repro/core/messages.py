"""Top-level message envelopes exchanged between ISS nodes and clients.

Protocol messages of the individual SB instances are wrapped in
:class:`InstanceMessage` envelopes carrying the instance identifier
``(epoch, segment leader)`` so the receiving node can route them; checkpoint,
state-transfer and client messages travel unwrapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..runtime.codec import ANY, INT, fixed_tuple, nested, register, tuple_of
from ..runtime.wire import is_batchable, register_batchable, wire_size
from .types import BucketId, ClientId, EpochNr, NodeId, Request, RequestId

#: Network endpoint ids of clients start here so they never collide with nodes.
CLIENT_ENDPOINT_OFFSET = 1_000_000


def client_endpoint(client_id: int) -> int:
    """Network endpoint identifier of a client process."""
    return CLIENT_ENDPOINT_OFFSET + client_id


def is_client_endpoint(endpoint: int) -> bool:
    """Whether a network endpoint id belongs to a client (vs a node)."""
    return endpoint >= CLIENT_ENDPOINT_OFFSET


@dataclass(frozen=True)
class InstanceMessage:
    """Envelope routing a protocol message to one SB instance."""

    instance_id: Tuple[EpochNr, NodeId]
    payload: object

    def wire_size(self) -> int:
        return 16 + wire_size(self.payload)


# The envelope is transparent to wire batching: it may be coalesced exactly
# when the protocol message it routes may be (votes yes, proposals no).
register_batchable(InstanceMessage, predicate=lambda m: is_batchable(m.payload))


@register_batchable
@dataclass(frozen=True)
class ClientRequestMsg:
    """⟨REQUEST, r⟩ sent by a client to a node.

    Batchable: a client submitting at a high rate coalesces the requests it
    sends to the same node within one flush tick into a single wire frame
    (the node still validates and buckets each request individually).
    """

    request: Request

    def wire_size(self) -> int:
        return 8 + self.request.size_bytes()


@register_batchable
@dataclass(frozen=True)
class ClientResponseMsg:
    """A node's acknowledgement that it delivered the client's request.

    Kept as the single-request form (re-acknowledgements of retransmitted
    requests, tests); the delivery fast path aggregates acknowledgements into
    :class:`ClientResponseBatchMsg` instead of sending one of these per
    request.
    """

    rid: RequestId
    sn: int
    node: NodeId

    def wire_size(self) -> int:
        return 48


@register_batchable
@dataclass(frozen=True)
class ClientResponseBatchMsg:
    """A node's acknowledgement for *all* of one client's requests delivered
    by one commit step.

    Aggregating the per-request ⟨RESPONSE⟩ messages per (client, batch) cuts
    the dominant message count of large runs by the batch size while leaving
    per-request completion semantics at the client unchanged: every ``(rid,
    sn)`` entry is processed exactly as if it had arrived in its own
    :class:`ClientResponseMsg`.
    """

    client: ClientId
    #: ``(request id, per-request sequence number)`` pairs; ``sn == -1``
    #: re-acknowledges an already-delivered retransmission.
    entries: Tuple[Tuple[RequestId, int], ...]
    node: NodeId

    def wire_size(self) -> int:
        # Header plus (rid 16B + sn 8B) per acknowledged request.
        return 32 + 24 * len(self.entries)


@dataclass(frozen=True)
class BucketAssignmentMsg:
    """Epoch-transition notification to clients (Section 4.3).

    Maps every bucket to the node leading its segment in ``epoch`` so clients
    can send each request to the leader currently responsible for it.
    """

    epoch: EpochNr
    assignment: Tuple[Tuple[BucketId, NodeId], ...]

    def wire_size(self) -> int:
        return 16 + 8 * len(self.assignment)


register(InstanceMessage, 0x18, instance_id=fixed_tuple(INT, INT), payload=ANY)
register(ClientRequestMsg, 0x19, request=nested(Request))
register(ClientResponseMsg, 0x1A, rid=nested(RequestId), sn=INT, node=INT)
register(
    ClientResponseBatchMsg,
    0x1B,
    client=INT,
    entries=tuple_of(fixed_tuple(nested(RequestId), INT)),
    node=INT,
)
register(BucketAssignmentMsg, 0x1C, epoch=INT, assignment=tuple_of(fixed_tuple(INT, INT)))
