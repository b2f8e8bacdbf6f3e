"""Leader-side proposal pacing shared by the SB implementations.

Section 3.2 of the paper: a leader proposes a batch for the next sequence
number of its segment once *either* enough requests are pending to fill a
batch *or* the batch timeout since the previous proposal has elapsed.  On top
of that, PBFT and Raft run with a fixed deployment-wide batch rate
(Table 1, Section 4.4.1) that translates into a minimum spacing between one
leader's proposals — the rate limit that protects against view changes under
load spikes.

:class:`ProposalPacer` encapsulates that logic so PBFT and Raft do not each
re-implement it.
Byzantine-straggler behaviour (Section 6.4.2) plugs in here as well: the
straggler adds a fixed delay before every proposal and strips its batches.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .sb import SBContext
from .types import Batch, SeqNr
from ..runtime.api import Timer


class ProposalPacer:
    """Drives a segment leader's proposals for its sequence numbers, in order.

    ``propose_fn(sn, batch)`` is invoked exactly once per sequence number
    (unless the node crashes first).  The pacer never proposes out of order;
    protocols that pipeline (PBFT) still initiate proposals in order and let
    the agreement rounds overlap.
    """

    def __init__(
        self,
        context: SBContext,
        propose_fn: Callable[[SeqNr, Batch], None],
        seq_nrs: Optional[List[SeqNr]] = None,
    ):
        self.context = context
        self._propose = propose_fn
        self._seq_nrs: List[SeqNr] = list(
            seq_nrs if seq_nrs is not None else context.segment.seq_nrs
        )
        self._next_index = 0
        self._last_proposal_time: Optional[float] = None
        self._timer: Optional[Timer] = None
        self._stopped = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin pacing; the first proposal fires after the usual spacing."""
        if not self.context.is_leader:
            return
        self._schedule_next(first=True)

    def stop(self) -> None:
        """Stop proposing and let go of the instance.

        The pacer and its SB instance reference each other (and a timer
        references the pacer); dropping both references here frees a
        garbage-collected epoch's instances — and every batch their slots
        hold — at once instead of at the next full cyclic collection.
        """
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._propose = None

    @property
    def finished(self) -> bool:
        return self._next_index >= len(self._seq_nrs)

    # --------------------------------------------------------------- pacing
    def _spacing(self) -> float:
        """Minimum time between two proposals of this leader."""
        config = self.context.config
        return max(self.context.proposal_interval, config.min_batch_timeout)

    def _deadline_spacing(self) -> float:
        """Time after which we propose even with a non-full (or empty) batch."""
        config = self.context.config
        return max(self._spacing(), config.max_batch_timeout)

    def _schedule_next(self, first: bool = False) -> None:
        if self._stopped or self.finished:
            return
        now = self.context.now()
        base = self._last_proposal_time if self._last_proposal_time is not None else now
        earliest = base + (0.0 if first else self._spacing())
        earliest += self.context.proposal_delay  # Byzantine straggler delay
        delay = max(0.0, earliest - now)
        self._timer = self.context.schedule(delay, self._attempt_proposal)

    def _attempt_proposal(self) -> None:
        if self._stopped or self.finished:
            return
        now = self.context.now()
        base = self._last_proposal_time if self._last_proposal_time is not None else 0.0
        deadline = base + self._deadline_spacing() + self.context.proposal_delay
        if not self.context.batch_ready() and now < deadline and self.context.config.max_batch_timeout > 0:
            # Not enough requests yet: wait until the batch timeout expires,
            # then propose whatever is available (possibly an empty batch,
            # which keeps the followers' protocol timers from firing).
            self._timer = self.context.schedule(max(0.0, deadline - now), self._attempt_proposal)
            return
        self._fire_proposal()

    def _fire_proposal(self) -> None:
        sn = self._seq_nrs[self._next_index]
        if not self.context.may_propose(sn):
            # The fault injector crashed this node right before the proposal.
            self.stop()
            return
        batch = self.context.cut_batch(sn)
        self._next_index += 1
        self._last_proposal_time = self.context.now()
        self._propose(sn, batch)
        self._schedule_next()
