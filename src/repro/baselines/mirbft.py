"""Mir-BFT baseline (Figure 10 comparison).

Mir-BFT [36] is the multi-leader predecessor of ISS.  Two behavioural
differences matter for the paper's comparison and are reproduced here:

1. **Stop-the-world epoch changes.**  Mir's epoch transitions are driven by a
   designated *epoch primary*: after an epoch's sequence numbers commit, the
   next epoch only starts once the new primary's NEW-EPOCH message arrives,
   and no segment of the new epoch makes progress in the meantime.  ISS, in
   contrast, derives the next epoch's configuration deterministically from
   the log and starts it immediately.

2. **Recurring ungraceful epoch changes.**  The epoch primary rotates
   round-robin over *all* nodes.  Whenever a crashed node's turn as primary
   comes up, the epoch change times out (an *ungraceful* epoch change) and
   the system stalls for the epoch-change timeout — periodically, forever —
   whereas ISS's leader-selection policy only pays once.

Everything else (PBFT ordering, buckets, batching) is shared with the ISS
implementation, which mirrors the fact that ISS and Mir share the request
partitioning design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from ..core.iss import ISSNode
from ..core.types import EpochNr, NodeId
from ..runtime.api import Timer


@dataclass(frozen=True)
class NewEpochMsg:
    """Epoch primary's announcement that the next epoch may start."""

    epoch: EpochNr
    primary: NodeId

    def wire_size(self) -> int:
        return 48


class MirBFTNode(ISSNode):
    """A Mir-BFT replica: ISS machinery plus primary-driven epoch changes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Epochs whose NEW-EPOCH message we already received, by primary.
        self._new_epoch_received: Set[EpochNr] = set()
        #: Epochs we finished locally but have not been allowed to leave yet.
        self._awaiting_new_epoch: Optional[EpochNr] = None
        self._epoch_change_timer: Optional[Timer] = None
        self.ungraceful_epoch_changes = 0
        self.graceful_epoch_changes = 0

    # ------------------------------------------------------------ primaries
    def epoch_primary(self, epoch: EpochNr) -> NodeId:
        """The epoch primary rotates round-robin over all nodes."""
        return epoch % self.config.num_nodes

    # ----------------------------------------------------- epoch transitions
    def _after_commit(self) -> None:  # overrides ISSNode
        delivered = self.log.advance_delivery(self.sim.now)
        if delivered and self.tracer is not None:
            self.tracer.on_deliver_batch(self.sim.now, self.node_id, delivered)
        for item in delivered:
            self._send_client_response(item.request.rid, item.sn)
        if self.on_deliver is not None:
            self._notify_delivered(delivered)
        while (
            not self.crashed
            and self._awaiting_new_epoch is None
            and self.manager.epoch_complete(self.current_epoch, self.log)
        ):
            finished = self.current_epoch
            self.manager.finish_epoch(finished, self.log)
            self.checkpoints.local_epoch_complete(finished, self.log)
            self.watermarks.advance_epoch()
            self.epochs_completed += 1
            next_epoch = finished + 1
            # Primary of the *next* epoch announces it; everybody else waits
            # (stop-the-world) for the announcement or the timeout.
            if self.epoch_primary(next_epoch) == self.node_id:
                self._broadcast_to_nodes(NewEpochMsg(epoch=next_epoch, primary=self.node_id))
            if next_epoch in self._new_epoch_received:
                self.graceful_epoch_changes += 1
                self._start_epoch(next_epoch)
                continue
            self._awaiting_new_epoch = next_epoch
            self._epoch_change_timer = self.sim.schedule(
                self.config.epoch_change_timeout,
                lambda e=next_epoch: self._on_epoch_change_timeout(e),
            )
            break

    def _on_epoch_change_timeout(self, epoch: EpochNr) -> None:
        """Ungraceful epoch change: proceed without the (crashed) primary."""
        if self.crashed or self._awaiting_new_epoch != epoch:
            return
        self.ungraceful_epoch_changes += 1
        self._awaiting_new_epoch = None
        self._start_epoch(epoch)
        self._after_commit()

    # -------------------------------------------------------------- messages
    def on_message(self, src: NodeId, message: object) -> None:  # overrides
        if isinstance(message, NewEpochMsg):
            if self.crashed:
                return
            if src != self.epoch_primary(message.epoch) or src != message.primary:
                return
            self._new_epoch_received.add(message.epoch)
            if self._awaiting_new_epoch == message.epoch:
                if self._epoch_change_timer is not None:
                    self._epoch_change_timer.cancel()
                self.graceful_epoch_changes += 1
                self._awaiting_new_epoch = None
                self._start_epoch(message.epoch)
                self._after_commit()
            return
        super().on_message(src, message)
