"""Reference Sequenced Broadcast implementation from consensus (Algorithm 5).

This is the construction the paper uses to prove that SB is implementable:
the designated sender brb-casts its message for each sequence number; every
node feeds brb-delivered messages into one Byzantine-consensus instance per
sequence number; when the sender is suspected (after SB-INIT) every node
*aborts*, proposing ``⊥`` for all sequence numbers it has not proposed yet.
Consensus then decides either a brb-delivered batch or ``⊥`` for every
sequence number, which yields SB1–SB4.

ISS's production path wraps PBFT/HotStuff/Raft instead (they are far more
message-efficient); this implementation exists for completeness, for the
correctness test-suite, and as the simplest possible example of an SB
implementation for downstream users who want to plug in their own protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..core.pacing import ProposalPacer
from ..core.sb import SBContext, SBInstance
from ..core.types import Batch, NIL, NodeId, SeqNr
from ..runtime.wire import is_batchable, register_batchable
from ..fd.detector import EVENT_SUSPECT, FailureDetector
from .bc import BOTTOM, ByzantineConsensus
from .brb import ReliableBroadcast


@dataclass(frozen=True)
class SbWrapped:
    """Envelope distinguishing per-sequence-number BRB and BC traffic."""

    sn: SeqNr
    kind: str  # "brb" | "bc"
    inner: object

    def wire_size(self) -> int:
        from ..runtime.wire import wire_size

        return 16 + wire_size(self.inner)


# Transparent to wire batching, like InstanceMessage: an SbWrapped envelope
# may be coalesced exactly when the BRB/BC message it carries may be.
register_batchable(SbWrapped, predicate=lambda m: is_batchable(m.inner))


class ConsensusSB(SBInstance):
    """SB built from BRB + consensus + a ◇S(bz) failure detector."""

    def __init__(
        self,
        context: SBContext,
        failure_detector: Optional[FailureDetector] = None,
        leader_timeout: Optional[float] = None,
    ):
        super().__init__(context)
        self.failure_detector = failure_detector
        #: Fallback "suspicion" timeout used when no failure detector is
        #: wired in: if the sender stays quiet for this long after SB-INIT we
        #: abort, mirroring the detector's strong completeness.
        self.leader_timeout = (
            leader_timeout
            if leader_timeout is not None
            else context.config.epoch_change_timeout
        )
        self._initialized = False
        self._aborted = False
        self._proposed: Set[SeqNr] = set()
        self._delivered: Set[SeqNr] = set()
        self._brb: Dict[SeqNr, ReliableBroadcast] = {}
        self._bc: Dict[SeqNr, ByzantineConsensus] = {}
        self._pacer = ProposalPacer(context, self._sb_cast)
        self._abort_timer = None
        self._build_instances()

    # --------------------------------------------------------------- set-up
    def _build_instances(self) -> None:
        ctx = self.context
        for sn in ctx.segment.seq_nrs:
            self._brb[sn] = ReliableBroadcast(
                instance=sn,
                node_id=ctx.node_id,
                sender=ctx.segment.leader,
                num_nodes=ctx.num_nodes,
                max_faulty=ctx.max_faulty,
                broadcast_fn=lambda msg, sn=sn: ctx.broadcast(
                    SbWrapped(sn=sn, kind="brb", inner=msg)
                ),
                deliver_fn=lambda payload, sn=sn: self._on_brb_deliver(sn, payload),
            )
            self._bc[sn] = ByzantineConsensus(
                instance=sn,
                node_id=ctx.node_id,
                num_nodes=ctx.num_nodes,
                max_faulty=ctx.max_faulty,
                sim=_ContextSim(ctx),
                broadcast_fn=lambda msg, sn=sn: ctx.broadcast(
                    SbWrapped(sn=sn, kind="bc", inner=msg)
                ),
                decide_fn=lambda value, sn=sn: self._on_decide(sn, value),
                view_timeout=self.context.config.view_change_timeout,
            )

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """SB-INIT (Algorithm 5, lines 11–15)."""
        self._initialized = True
        if self.failure_detector is not None:
            self.failure_detector.subscribe(self._on_fd_event)
            if self.failure_detector.is_suspected(self.context.segment.leader):
                self._abort()
        if not self.context.is_leader:
            # Fallback completeness: if the sender never gets anything
            # decided, abort after the leader timeout.
            self._abort_timer = self.context.schedule(self.leader_timeout, self._on_leader_timeout)
        self._pacer.start()

    def stop(self) -> None:
        self._pacer.stop()
        if self._abort_timer is not None:
            self._abort_timer.cancel()
            self._abort_timer = None
        if self.failure_detector is not None:
            self.failure_detector.unsubscribe(self._on_fd_event)
        for bc in self._bc.values():
            bc.stop()
        # The per-sequence-number BRB and BC instances call back into this
        # one (see PbftSB.stop): drop them so a stopped instance and its
        # slots' batches are freed without a full cyclic collection.
        self._brb.clear()
        self._bc.clear()

    # --------------------------------------------------------------- sender
    def _sb_cast(self, sn: SeqNr, batch: Batch) -> None:
        """SB-CAST at the designated sender: brb-cast the batch (line 17)."""
        self._brb[sn].brb_cast(batch)

    # ------------------------------------------------------------- delivery
    def _on_brb_deliver(self, sn: SeqNr, payload: object) -> None:
        """Line 20: propose the brb-delivered batch to consensus."""
        if sn in self._proposed:
            return
        if isinstance(payload, Batch) and not self.context.validate_batch(payload):
            # Invalid payloads never enter consensus at a correct node; the
            # instance will fall back to ⊥ through the abort path.
            return
        self._proposed.add(sn)
        self._bc[sn].propose(payload)

    def _on_decide(self, sn: SeqNr, value: object) -> None:
        if sn in self._delivered:
            return
        self._delivered.add(sn)
        if isinstance(value, str) and value == BOTTOM:
            self.context.deliver(sn, NIL)
        else:
            self.context.deliver(sn, value)
        if self._abort_timer is not None and len(self._delivered) == len(self.segment.seq_nrs):
            self._abort_timer.cancel()

    # ---------------------------------------------------------------- abort
    def _on_fd_event(self, event: str, node: NodeId) -> None:
        if event == EVENT_SUSPECT and node == self.context.segment.leader and self._initialized:
            self._abort()

    def _on_leader_timeout(self) -> None:
        if len(self._delivered) < len(self.segment.seq_nrs):
            self._abort()

    def _abort(self) -> None:
        """Lines 32–37: propose ⊥ for every not-yet-proposed sequence number."""
        if self._aborted:
            return
        self._aborted = True
        for sn in self.segment.seq_nrs:
            if sn not in self._proposed:
                self._proposed.add(sn)
                self._bc[sn].propose(BOTTOM)

    # ------------------------------------------------------------- messages
    def handle_message(self, src: NodeId, message: object) -> None:
        if not isinstance(message, SbWrapped):
            return
        if message.kind == "brb":
            brb = self._brb.get(message.sn)
            if brb is not None:
                brb.handle_message(src, message.inner)
        elif message.kind == "bc":
            bc = self._bc.get(message.sn)
            if bc is not None:
                bc.handle_message(src, message.inner)


class _ContextSim:
    """Adapter exposing the SBContext scheduling API with a Simulator shape."""

    def __init__(self, context: SBContext):
        self._context = context

    def schedule(self, delay: float, callback) -> object:
        return self._context.schedule(delay, callback)

    @property
    def now(self) -> float:
        return self._context.now()
