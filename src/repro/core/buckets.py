"""Request buckets and the rotating bucket-to-leader assignment.

ISS partitions the space of client requests into *buckets* using a hash of
the request identifier (Section 3.7: the payload is excluded so malicious
clients cannot bias the distribution).  Each epoch assigns every bucket to
exactly one segment/leader; the assignment rotates across epochs (Section
2.4, Equation 1 plus the extra-bucket redistribution) so every bucket is
eventually owned by a correct leader — this is what prevents both request
duplication and censoring.

The module also provides :class:`BucketQueue`, the node-local FIFO,
idempotent queue of pending requests per bucket (Section 3.7), and
:class:`BucketPool`, the set of all bucket queues of one node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .types import BucketId, EpochNr, NodeId, Request, RequestId


# --------------------------------------------------------------------------
# Hash-partitioning of the request space
# --------------------------------------------------------------------------

def bucket_of(rid: RequestId, num_buckets: int) -> BucketId:
    """Map a request identifier to its bucket.

    Follows Section 3.7: the bucket is derived from the client identifier and
    the client timestamp only (``c || t mod |B|``); the payload is excluded
    so clients cannot bias placement by crafting payloads.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    # The mixing step keeps consecutive timestamps of one client from all
    # landing in consecutive buckets while remaining deterministic; the mixed
    # value is precomputed at RequestId construction (``_mix``).
    return rid._mix % num_buckets


# --------------------------------------------------------------------------
# Bucket-to-leader assignment (Section 2.4)
# --------------------------------------------------------------------------

def init_buckets(epoch: EpochNr, node: NodeId, num_nodes: int, num_buckets: int) -> List[BucketId]:
    """Equation (1): buckets initially assigned to ``node`` in ``epoch``.

    ``initBuckets(e, i) = { b in B | (b + e) == i  (mod n) }``
    """
    return [b for b in range(num_buckets) if (b + epoch) % num_nodes == node]


def extra_buckets(
    epoch: EpochNr,
    leaders: Sequence[NodeId],
    num_nodes: int,
    num_buckets: int,
) -> List[BucketId]:
    """Buckets whose initial assignee is *not* a leader of ``epoch``."""
    leader_set = set(leaders)
    extras: List[BucketId] = []
    for node in range(num_nodes):
        if node in leader_set:
            continue
        extras.extend(init_buckets(epoch, node, num_nodes, num_buckets))
    return sorted(extras)


def buckets_for_leader(
    epoch: EpochNr,
    leader: NodeId,
    leaders: Sequence[NodeId],
    num_nodes: int,
    num_buckets: int,
) -> List[BucketId]:
    """Full bucket set of one leader in ``epoch`` (Section 2.4).

    The leader keeps its initial buckets and receives, round-robin by its
    index in the (lexicographically sorted) leaderset, a share of the buckets
    whose initial assignees are not leaders this epoch.
    """
    ordered_leaders = sorted(leaders)
    if leader not in ordered_leaders:
        raise ValueError(f"node {leader} is not a leader of epoch {epoch}")
    k = ordered_leaders.index(leader)
    own = set(init_buckets(epoch, leader, num_nodes, num_buckets))
    redistributed = {
        b
        for b in extra_buckets(epoch, ordered_leaders, num_nodes, num_buckets)
        if (b + epoch) % len(ordered_leaders) == k
    }
    return sorted(own | redistributed)


def assignment_for_epoch(
    epoch: EpochNr,
    leaders: Sequence[NodeId],
    num_nodes: int,
    num_buckets: int,
    active_nodes: Optional[Sequence[NodeId]] = None,
) -> Dict[NodeId, List[BucketId]]:
    """Bucket assignment for every leader of ``epoch``.

    The result is a partition of ``range(num_buckets)``: every bucket is
    owned by exactly one leader.  Semantically identical to calling
    :func:`buckets_for_leader` per leader (the test suite asserts the
    equivalence) but computed in a single O(|B|) pass, since clients and the
    epoch manager evaluate it frequently.

    ``active_nodes`` is the epoch's membership (sorted node ids) under
    dynamic reconfiguration.  Equation (1) then rotates over the *index* in
    the active list rather than the raw node id — identical to the paper's
    ``(b + e) mod n`` whenever the membership is the genesis ``0..n-1``,
    but well-defined for arbitrary replica sets (the bucket space itself
    stays fixed at its genesis size).
    """
    ordered_leaders = sorted(set(leaders))
    if not ordered_leaders:
        raise ValueError("assignment needs at least one leader")
    if active_nodes is not None:
        active = sorted(active_nodes)
        contiguous = active == list(range(len(active)))
    else:
        active = list(range(num_nodes))
        contiguous = True
    leader_index = {leader: k for k, leader in enumerate(ordered_leaders)}
    assignment: Dict[NodeId, List[BucketId]] = {leader: [] for leader in ordered_leaders}
    num_active = len(active)
    for bucket in range(num_buckets):
        if contiguous:
            initial_owner = (bucket + epoch) % num_active
        else:
            initial_owner = active[(bucket + epoch) % num_active]
        if initial_owner in leader_index:
            assignment[initial_owner].append(bucket)
        else:
            k = (bucket + epoch) % len(ordered_leaders)
            assignment[ordered_leaders[k]].append(bucket)
    return assignment


# --------------------------------------------------------------------------
# Node-local bucket queues
# --------------------------------------------------------------------------

@dataclass
class _QueueEntry:
    order: int
    request: Request


#: Stale heap tuples a queue tolerates beyond its live entries before it
#: rebuilds the heap: ``len(_heap) <= 2 * len(queue) + HEAP_SLACK`` holds
#: after every operation.
HEAP_SLACK = 32


class BucketQueue:
    """FIFO, idempotent queue of pending requests for one bucket.

    * *Idempotent*: adding the same request id twice is a no-op.
    * *FIFO*: :meth:`take_oldest` always returns the oldest pending requests,
      which the liveness proof (Lemma 5.5) relies on.
    * *Resurrection-aware*: a request returned via :meth:`resurrect` keeps its
      original arrival order, so it goes back to the front of the queue.
    * *Bounded by its pending requests*: removal leaves a stale tuple in the
      heap, which the leader's reads pop from the head; a node that never
      leads the bucket only removes, so once stale tuples outnumber live
      ones by more than :data:`HEAP_SLACK` the heap is rebuilt from the
      live entries.
      The arrival order of a removed request is kept until its delivery
      (:meth:`forget_history`), so a resurrection finds its slot.
    """

    def __init__(self, bucket_id: BucketId):
        self.bucket_id = bucket_id
        self._entries: Dict[RequestId, _QueueEntry] = {}
        #: Min-heap of (arrival order, request id); may contain stale ids,
        #: at most ``len(_entries) + HEAP_SLACK`` of them.
        self._heap: List[Tuple[int, RequestId]] = []
        self._arrival_counter = 0
        #: Arrival order remembered even after removal, for resurrection.
        self._original_order: Dict[RequestId, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rid: RequestId) -> bool:
        return rid in self._entries

    def add(self, request: Request) -> bool:
        """Add a request exactly once.

        Returns False when the request is already pending *or* was added
        before and has since been removed (proposed or delivered) — the
        "exactly once" idempotence of Section 3.7.  Requests withdrawn by an
        unsuccessful proposal re-enter through :meth:`resurrect`, which
        bypasses this check while preserving the original FIFO position.
        """
        rid = request.rid
        if rid in self._entries or rid in self._original_order:
            return False
        self._insert(request)
        return True

    def _insert(self, request: Request) -> None:
        rid = request.rid
        order = self._original_order.get(rid)
        if order is None:
            order = self._arrival_counter
            self._arrival_counter += 1
            self._original_order[rid] = order
        entry = _QueueEntry(order=order, request=request)
        self._entries[rid] = entry
        heapq.heappush(self._heap, (order, rid))

    def remove(self, rid: RequestId) -> Optional[Request]:
        """Remove a request (e.g. because it was proposed or delivered)."""
        entry = self._entries.pop(rid, None)
        if entry is None:
            return None
        self._bound_heap()
        return entry.request

    def resurrect(self, request: Request) -> None:
        """Return an unsuccessfully proposed request, keeping its FIFO slot."""
        if request.rid in self._entries:
            return
        self._insert(request)

    def peek_oldest(self) -> Optional[Request]:
        self._compact()
        if not self._heap:
            return None
        _order, rid = self._heap[0]
        return self._entries[rid].request

    def take_oldest(self, count: int) -> List[Request]:
        """Remove and return up to ``count`` oldest pending requests."""
        taken: List[Request] = []
        while len(taken) < count:
            self._compact()
            if not self._heap:
                break
            _order, rid = heapq.heappop(self._heap)
            entry = self._entries.pop(rid, None)
            if entry is not None:
                taken.append(entry.request)
        self._bound_heap()
        return taken

    def _compact(self) -> None:
        """Drop stale heap heads: removed requests, and the old slot of a
        request re-added after :meth:`forget_history`."""
        heap = self._heap
        entries = self._entries
        while heap:
            order, rid = heap[0]
            entry = entries.get(rid)
            if entry is not None and entry.order == order:
                return
            heapq.heappop(heap)

    def _bound_heap(self) -> None:
        """Rebuild the heap from the live entries once stale tuples
        outnumber them by more than :data:`HEAP_SLACK`.  Arrival orders are
        unique per request, so the rebuilt heap pops in the same order."""
        entries = self._entries
        if len(self._heap) > 2 * len(entries) + HEAP_SLACK:
            self._heap = [(entry.order, rid) for rid, entry in entries.items()]
            heapq.heapify(self._heap)

    def pending(self) -> List[Request]:
        """All pending requests in FIFO order (test/inspection helper)."""
        entries = sorted(self._entries.values(), key=lambda e: e.order)
        return [e.request for e in entries]

    def forget_history(self, rid: RequestId) -> None:
        """Drop the remembered arrival order of a request (garbage collection)."""
        self._original_order.pop(rid, None)


class BucketPool:
    """All bucket queues of one node: the requests pending a proposal.

    Nodes add every valid request they receive to the corresponding queue,
    but only propose from queues currently assigned to segments they lead.
    The pool does not know what the node has committed: the node asks its
    client watermarks (:meth:`repro.core.validation.ClientWatermarks.committed`)
    before it adds or resurrects a request (duplication prevention across
    epochs, Section 3.2).

    A bucket's queue is created when a request first enters it
    (:meth:`add_request`, :meth:`resurrect`, :meth:`queue`); every read
    answers for a missing queue as for an empty one without creating it.
    A node holds queues only for the buckets its requests have used, not
    ``num_buckets`` of them from boot.
    """

    def __init__(self, num_buckets: int):
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.num_buckets = num_buckets
        self._queues: Dict[BucketId, BucketQueue] = {}

    def queue(self, bucket: BucketId) -> BucketQueue:
        """The queue of ``bucket``, created on first use."""
        queue = self._queues.get(bucket)
        if queue is None:
            if not 0 <= bucket < self.num_buckets:
                raise KeyError(bucket)
            queue = self._queues[bucket] = BucketQueue(bucket)
        return queue

    def bucket_of(self, rid: RequestId) -> BucketId:
        return rid._mix % self.num_buckets

    def add_request(self, request: Request) -> bool:
        """Add a request to its bucket's queue (see :meth:`BucketQueue.add`)."""
        rid = request.rid
        return self.queue(rid._mix % self.num_buckets).add(request)

    def remove_request(self, rid: RequestId) -> Optional[Request]:
        queue = self._queues.get(rid._mix % self.num_buckets)
        return queue.remove(rid) if queue is not None else None

    def mark_delivered(self, request: Request) -> None:
        """Drop a committed request from its pending queue, arrival order
        included."""
        rid = request.rid
        queue = self._queues.get(rid._mix % self.num_buckets)
        if queue is not None:
            queue.remove(rid)
            queue.forget_history(rid)

    def resurrect(self, requests: Iterable[Request]) -> None:
        """Return unsuccessfully proposed requests to their queues
        (Algorithm 2, ``resurrectRequests``)."""
        for request in requests:
            self.queue(request.rid._mix % self.num_buckets).resurrect(request)

    def pending_in(self, buckets: Iterable[BucketId]) -> int:
        """Number of pending requests across the given buckets."""
        queues = self._queues
        return sum(len(queues[b]) for b in buckets if b in queues)

    def cut_batch(self, buckets: Sequence[BucketId], max_size: int) -> List[Request]:
        """Take up to ``max_size`` oldest requests across ``buckets``.

        Requests are drawn oldest-first *per bucket* and merged by arrival
        order, approximating a global FIFO over the segment's buckets
        (Algorithm 2, ``cutBatch``).
        """
        if max_size <= 0:
            return []
        # Gather candidates lazily: peek each bucket and repeatedly take the
        # globally oldest head.  Queue heads expose their arrival order via
        # the underlying heap, but a simple peek-and-compare loop is clearer
        # and fast enough for simulation batch sizes.
        taken: List[Request] = []
        heads: List[Tuple[int, BucketId]] = []
        queues = self._queues
        for b in buckets:
            queue = queues.get(b)
            if queue is None:
                continue
            oldest = queue.peek_oldest()
            if oldest is not None:
                heads.append((queue._entries[oldest.rid].order, b))
        heapq.heapify(heads)
        while heads and len(taken) < max_size:
            _order, b = heapq.heappop(heads)
            queue = queues[b]
            requests = queue.take_oldest(1)
            if requests:
                taken.append(requests[0])
            oldest = queue.peek_oldest()
            if oldest is not None:
                heapq.heappush(heads, (queue._entries[oldest.rid].order, b))
        return taken

    def total_pending(self) -> int:
        return sum(len(q) for q in self._queues.values())
