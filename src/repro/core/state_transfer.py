"""State transfer for nodes that have fallen behind (Section 3.5).

When a node starts receiving messages for an epoch far ahead of its own —
for example after recovering from a partition — it fetches the missing log
entries together with the stable checkpoint that proves their integrity,
instead of replaying the ordering protocol for them.

This is also the second half of crash recovery (see
:mod:`repro.storage.recovery`): a restarted node replays its WAL and
snapshot locally, then probes peers with an *open-ended* request
(``last_epoch = LATEST_STABLE``) for everything they can prove stable —
including epochs ordered entirely while the node was down.  Verified
responses additionally restore the epoch's checkpoint certificate into the
local checkpoint protocol, so transferred epochs are garbage collected and
compacted exactly like locally completed ones.

Catch-up requests are *staggered*: asking every peer at once would make
each of them ship the full stable prefix (~(n-1)× the useful bytes, the
ROADMAP follow-up from PR 3).  Instead a request goes to one peer
immediately and escalates to the next peer every ``probe_stagger``
virtual seconds (default :data:`DEFAULT_PROBE_STAGGER`).  Escalations are never
cancelled — they are *narrowed* at fire time to what is still missing
(open-ended probes re-base past the local stable frontier, ranged
requests shrink to the outstanding contiguous runs) and no-op when
nothing is.  Every peer is therefore still asked eventually — a crashed
or lagging early responder costs stagger intervals of delay, never
completeness — while the common case transfers each epoch exactly once.

The same object holds the one catch-up rule, for a restart, a join and a
healed partition, in both backends.  *Catch-up mode* begins with the
open-ended probe and ends at the first epoch the node completes before
that epoch's stable certificate exists; while in it, the node fetches a
stable current epoch at once instead of after a grace period.  A peer
heard again after a view change timeout of silence may mean a heal: the
node catches up if it had lost a strong quorum, or else once the peer's
next epoch-bearing message shows it ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..runtime.codec import INT, fixed_tuple, nested, register, tuple_of
from .checkpoint import CheckpointProtocol
from .config import ISSConfig
from .log import Log
from .segment import epoch_seq_nrs
from .types import (
    LOG_ENTRY,
    CheckpointCertificate,
    EpochNr,
    LogEntry,
    NodeId,
    SeqNr,
    is_nil,
)


#: Sentinel ``last_epoch`` meaning "every epoch you can prove stable".
#: Used by the crash-recovery probe, which cannot know how far ahead the
#: live nodes have ordered while the requester was down.
LATEST_STABLE: EpochNr = -1

#: Default spacing (virtual seconds) between probe escalations.  Sized so a
#: multi-epoch response has time to clear the responder's scaled-down NIC
#: before the next peer is bothered (an epoch of full batches is ~2.4 MB ≈
#: 1 s of serialisation at the benchmark bandwidth).  Purely a virtual-time
#: trade: redundant state-transfer bytes against worst-case catch-up delay
#: when the first probed peer cannot answer; ``0`` probes every peer at once.
DEFAULT_PROBE_STAGGER = 2.0


@dataclass(frozen=True)
class StateRequest:
    """Ask a peer for all log entries of the given epochs.

    ``last_epoch = LATEST_STABLE`` is an open-ended request: the responder
    substitutes its own latest stable epoch.
    """

    first_epoch: EpochNr
    last_epoch: EpochNr

    def wire_size(self) -> int:
        return 32


@dataclass(frozen=True)
class StateResponse:
    """Log entries of one epoch plus its stable checkpoint certificate."""

    epoch: EpochNr
    entries: Tuple[Tuple[SeqNr, LogEntry], ...]
    certificate: CheckpointCertificate

    def wire_size(self) -> int:
        payload = sum(
            (1 if is_nil(entry) else entry.size_bytes()) for _sn, entry in self.entries
        )
        return 64 + payload + 96 * len(self.certificate.signatures)


register(StateRequest, 0x51, first_epoch=INT, last_epoch=INT)
register(
    StateResponse,
    0x52,
    epoch=INT,
    entries=tuple_of(fixed_tuple(INT, LOG_ENTRY)),
    certificate=nested(CheckpointCertificate),
)


class StateTransfer:
    """Per-node state transfer and the catch-up rule that drives it.

    The host node calls :meth:`request_missing` when it detects it is behind,
    answers peers' requests through :meth:`build_responses`, and applies
    verified responses through :meth:`handle_response` (which feeds entries
    into the log via the supplied callback).  For the catch-up rule it
    reports every replica message through :meth:`heard` and feeds
    :meth:`returned_ahead` and :meth:`epoch_finished`.
    """

    def __init__(
        self,
        node_id: NodeId,
        config: ISSConfig,
        checkpoints: CheckpointProtocol,
        send_fn: Callable[[NodeId, object], None],
        apply_entry_fn: Callable[[SeqNr, LogEntry, EpochNr], None],
        schedule_fn: Optional[Callable[[float, Callable[[], None]], object]] = None,
        probe_stagger: float = DEFAULT_PROBE_STAGGER,
    ):
        self.node_id = node_id
        self.config = config
        self.checkpoints = checkpoints
        self._send = send_fn
        self._apply_entry = apply_entry_fn
        #: Timer factory for probe escalation; None (or a zero stagger)
        #: falls back to probing every peer immediately.
        self._schedule = schedule_fn
        self.probe_stagger = probe_stagger
        #: Epochs for which a transfer is currently outstanding.
        self._in_flight: set = set()
        self.transfers_completed = 0
        #: Wire bytes of every StateResponse received (incl. duplicates).
        self.bytes_received = 0
        #: Log entries actually applied from verified responses.
        self.entries_applied = 0
        #: Open-ended recovery probes sent.
        self.probes_sent = 0
        #: Staggered escalations actually fired (earlier peers too slow).
        self.probe_escalations = 0
        #: Staggered request chains started (rotates the first responder).
        self._ranged_requests = 0
        #: Outstanding escalation/expiry timers (cancelled on host crash).
        self._probe_timers: List[object] = []
        #: Catch-up mode (see :meth:`begin_catchup`, :meth:`epoch_finished`).
        self.catching_up = False
        #: When the host last heard each replica (itself included).
        self._last_heard: Dict[NodeId, float] = {}
        #: Returning peers whose epoch no message has shown yet.
        self._returned: Set[NodeId] = set()

    # ------------------------------------------------------------- catch-up
    def begin_catchup(self, first_epoch: EpochNr, peers: List[NodeId]) -> None:
        """Enter catch-up mode and probe for everything stable from
        ``first_epoch`` on (after a restart, a join or a heal)."""
        self.catching_up = True
        self._returned.clear()
        self.request_latest(first_epoch, peers)

    def heard(self, src: NodeId, now: float, epoch: EpochNr) -> bool:
        """The host heard replica ``src`` at ``now``, in its ``epoch``.

        A peer heard again after at least a view change timeout of silence
        either finds the host cut off or is returning.  True when so many
        peers of the epoch's view (``src`` still counted) were silent that
        long that the rest could not form a strong quorum with the host: it
        should catch up.  Otherwise ``src`` is returning (see
        :meth:`returned_ahead`).  The host's own messages, or a host already
        catching up, decide nothing."""
        last_heard = self._last_heard
        silence = self.config.view_change_timeout
        cut_off = False
        if now - last_heard.get(src, now) >= silence and src != self.node_id and not self.catching_up:
            view = self.checkpoints.membership.view_for(epoch)
            silent = sum(
                1
                for peer in view.nodes
                if peer != self.node_id and now - last_heard.get(peer, now) >= silence
            )
            cut_off = view.num_nodes - silent < view.strong_quorum
            if not cut_off:
                self._returned.add(src)
        last_heard[src] = now
        return cut_off

    def returned_ahead(self, src: NodeId, ahead: bool) -> bool:
        """A message of ``src`` showed its epoch, ahead of the host's or not.

        True when ``src`` is a returning peer shown ahead and the host is not
        catching up yet: the host should begin.  Either way the first such
        message settles ``src``."""
        if src not in self._returned:
            return False
        self._returned.discard(src)
        return ahead and not self.catching_up

    def epoch_finished(self, epoch: EpochNr) -> None:
        """The host completed ``epoch``.  Completing it before the epoch's
        stable certificate exists (the host's own vote is already counted)
        means the host keeps pace: catch-up mode ends."""
        if self.catching_up and self.checkpoints.stable_checkpoint(epoch) is None:
            self.catching_up = False

    # ----------------------------------------------------------- requesting
    def request_missing(
        self,
        first_epoch: EpochNr,
        last_epoch: EpochNr,
        peers: List[NodeId],
        force: bool = False,
    ) -> None:
        """Ask peers for the epochs in ``[first_epoch, last_epoch]``.

        ``force`` re-requests epochs already marked in flight — the
        recovery catch-up path uses it when it *knows* a stable checkpoint
        exists for an epoch an earlier request failed to obtain (e.g. the
        request predated the checkpoint, or the responder crashed
        mid-transfer).

        Requests use the staggered escalation discipline (see
        :meth:`_staggered_send`): one peer is asked immediately, the rest
        ``probe_stagger`` apart with the request narrowed to what is still
        missing, and the in-flight reservation expires once the chain has
        run through every peer — so a chain whose responders all fail never
        blocks a later trigger from retrying.
        """
        wanted = [
            e
            for e in range(first_epoch, last_epoch + 1)
            if force or e not in self._in_flight
        ]
        if not wanted:
            return
        for epoch in wanted:
            self._in_flight.add(epoch)
        request = StateRequest(first_epoch=wanted[0], last_epoch=wanted[-1])
        others = [peer for peer in peers if peer != self.node_id]
        if not others:
            return
        self._staggered_send(others, request)

    def request_latest(self, first_epoch: EpochNr, peers: List[NodeId]) -> None:
        """Open-ended recovery probe: fetch everything stable from ``first_epoch`` on.

        A freshly restarted node cannot know how many epochs were ordered
        while it was down, so it asks for all epochs peers can prove.  The
        probe targets peers one at a time (``probe_stagger`` apart); later
        escalations re-base past whatever earlier responders already
        supplied, so every peer is still consulted eventually but the full
        stable prefix is shipped (at most) once instead of n-1 times.
        With no scheduler or a zero stagger, every peer is probed at once
        (the maximally redundant, maximally robust pre-trim behaviour).
        """
        self.probes_sent += 1
        request = StateRequest(first_epoch=first_epoch, last_epoch=LATEST_STABLE)
        others = [peer for peer in peers if peer != self.node_id]
        if not others:
            return
        self._staggered_send(others, request)

    # ------------------------------------------------- stagger & escalation
    def _staggered_send(self, others: List[NodeId], request: StateRequest) -> None:
        """Ask one peer now, schedule the rest ``probe_stagger`` apart.

        The starting peer rotates per request so repeated catch-ups spread
        the responder load.  Escalations self-narrow at fire time (see
        :meth:`_escalate_probe`), so peers asked later only ship what the
        earlier responders failed to supply; a ranged chain additionally
        expires its in-flight reservation one stagger after the last peer
        was asked, so even a chain of dead responders cannot block a later
        trigger from retrying.  Without a scheduler (unit tests) or with a
        zero stagger, every peer is asked at once — the pre-trim behaviour.
        """
        if self._schedule is None or self.probe_stagger <= 0:
            for peer in others:
                self._send(peer, request)
            return
        # Prune fired/cancelled timers so repeated catch-ups on a long-lived
        # lagging node keep the handle list (and stop()'s work) bounded.
        self._probe_timers = [
            timer for timer in self._probe_timers if getattr(timer, "active", True)
        ]
        start = self._ranged_requests % len(others)
        self._ranged_requests += 1
        rotated = others[start:] + others[:start]
        self._send(rotated[0], request)
        for index, peer in enumerate(rotated[1:], start=1):
            self._probe_timers.append(
                self._schedule(
                    self.probe_stagger * index,
                    lambda p=peer, r=request: self._escalate_probe(p, r),
                )
            )
        if request.last_epoch != LATEST_STABLE:
            self._probe_timers.append(
                self._schedule(
                    self.probe_stagger * len(rotated),
                    lambda r=request: self._expire_request(r),
                )
            )

    def _escalate_probe(self, peer: NodeId, request: StateRequest) -> None:
        """Fire one staggered escalation, narrowed to what is still missing.

        Open-ended probes re-base past the local stable frontier (verified
        responses restored those epochs' certificates, so the frontier
        reflects everything already obtained); ranged requests shrink to
        the outstanding epochs, one request per contiguous run so already
        supplied gaps are never re-shipped.  When nothing is missing the
        escalation is free: an empty range is skipped entirely and a
        re-based probe only yields epochs that stabilised since.
        """
        if request.last_epoch == LATEST_STABLE:
            latest = self.checkpoints.latest_stable_epoch()
            if latest is not None and latest + 1 > request.first_epoch:
                request = StateRequest(first_epoch=latest + 1, last_epoch=LATEST_STABLE)
            self.probe_escalations += 1
            self._send(peer, request)
            return
        missing = [
            epoch
            for epoch in range(request.first_epoch, request.last_epoch + 1)
            if epoch in self._in_flight
        ]
        if not missing:
            return
        self.probe_escalations += 1
        run_start = previous = missing[0]
        for epoch in missing[1:] + [None]:
            if epoch is not None and epoch == previous + 1:
                previous = epoch
                continue
            self._send(peer, StateRequest(first_epoch=run_start, last_epoch=previous))
            if epoch is not None:
                run_start = previous = epoch

    def _expire_request(self, request: StateRequest) -> None:
        """Release a ranged chain's in-flight reservation after it ran dry.

        Fires one stagger interval after the chain's last peer was asked:
        whatever is still unapplied by then is fair game for the next
        catch-up trigger (fresh chain, freshly rotated peers).
        """
        for epoch in range(request.first_epoch, request.last_epoch + 1):
            self._in_flight.discard(epoch)

    def stop(self) -> None:
        """Cancel outstanding escalation timers (host crashed or shut down)."""
        for timer in self._probe_timers:
            cancel = getattr(timer, "cancel", None)
            if cancel is not None:
                cancel()
        self._probe_timers = []

    # ------------------------------------------------------------ answering
    def build_responses(self, request: StateRequest, log: Log) -> List[StateResponse]:
        """Build responses for every requested epoch we can prove stable."""
        last_epoch = request.last_epoch
        if last_epoch == LATEST_STABLE:
            latest = self.checkpoints.latest_stable_epoch()
            if latest is None:
                return []
            last_epoch = latest
        responses: List[StateResponse] = []
        for epoch in range(request.first_epoch, last_epoch + 1):
            certificate = self.checkpoints.stable_checkpoint(epoch)
            if certificate is None:
                continue
            seq_nrs = epoch_seq_nrs(epoch, self.config.epoch_length)
            if not log.is_complete(seq_nrs):
                continue
            entries = tuple(log.entries_in(seq_nrs))
            responses.append(
                StateResponse(epoch=epoch, entries=entries, certificate=certificate)
            )
        return responses

    # -------------------------------------------------------------- applying
    def handle_response(self, response: StateResponse, log: Log) -> bool:
        """Verify and apply one state-transfer response.

        Returns True when the epoch was applied (or already present).
        The certificate signature quorum and the Merkle root over the
        received entries are both checked before anything touches the log;
        a verified certificate is additionally restored into the local
        checkpoint protocol so the epoch is stable (and garbage collected)
        at the receiver exactly as if it had collected the votes itself.
        """
        self.bytes_received += response.wire_size()
        epoch = response.epoch
        if epoch not in self._in_flight and log.is_complete(
            epoch_seq_nrs(epoch, self.config.epoch_length)
        ):
            return True
        if not self.checkpoints.verify_certificate(response.certificate):
            return False
        expected_sns = list(epoch_seq_nrs(epoch, self.config.epoch_length))
        received_sns = [sn for sn, _entry in response.entries]
        if received_sns != expected_sns:
            return False
        # Check the Merkle root of the received entries against the certificate.
        from ..crypto.merkle import merkle_root  # local import to avoid cycle at module load

        digests = [entry.digest() for _sn, entry in response.entries]
        if merkle_root(digests) != response.certificate.log_root:
            return False
        for sn, entry in response.entries:
            if not log.has_entry(sn):
                self._apply_entry(sn, entry, epoch)
                self.entries_applied += 1
        # Entries first, certificate second: compaction triggered by the
        # restored certificate then sees the complete prefix right away.
        self.checkpoints.restore_stable(response.certificate)
        self._in_flight.discard(epoch)
        self.transfers_completed += 1
        return True
