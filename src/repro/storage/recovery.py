"""Rebuilding an ISS node from its durable storage after a crash.

Recovery has three phases, mirroring production SMR restart procedures:

1. **Log replay** — one pass over ``wal.log`` in append order, decoding
   each record once: every commit record is re-applied to the fresh node's
   log, delivered sets and client watermarks.
2. **Certificates** — the certificate of the latest seal and every stable
   checkpoint certificate above it are restored into the node's checkpoint
   protocol (so completed epochs are not re-announced and their SB
   instances are never re-opened).
3. **Fast-forward** — epoch bookkeeping (leader-policy failure history,
   watermark windows, counters) is advanced through every epoch the
   restored log completes, contiguous delivery replays the restored prefix
   to the application, the epoch to resume at (the first incomplete one)
   is computed, and everything delivered leaves memory again
   (:meth:`repro.core.iss.ISSNode.evict_delivered`).

What storage cannot provide — entries ordered while the node was down —
is fetched afterwards through the existing state-transfer protocol:
:func:`boot_from_storage` starts the node at the resume epoch and calls
``begin_recovery_catchup()``, which probes peers for everything they can
prove stable (see :mod:`repro.core.state_transfer`).

Determinism: recovery is a pure function of the storage contents and the
node's configuration.  Same seed ⇒ same crash ⇒ same WAL ⇒ same recovery,
which the restart golden trace pins (``tests/data/golden_trace_recovery.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .node_storage import NodeStorage
from .wal import RECORD_CHECKPOINT, RECORD_COMMIT


@dataclass
class RecoveryInfo:
    """What recovery did, for metrics and the restart report."""

    node_id: int
    #: First epoch the restored log does *not* complete — where to resume.
    resume_epoch: int
    #: Sealed positions replayed / commits replayed above them.
    snapshot_entries: int = 0
    wal_entries_replayed: int = 0
    #: Stable checkpoint certificates restored from storage.
    certificates_restored: int = 0
    #: Requests re-delivered to the application during replay.
    requests_redelivered: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat, JSON-friendly view (used by reports and golden traces)."""
        return {
            "node": float(self.node_id),
            "resume_epoch": float(self.resume_epoch),
            "snapshot_entries": float(self.snapshot_entries),
            "wal_entries_replayed": float(self.wal_entries_replayed),
            "certificates_restored": float(self.certificates_restored),
            "requests_redelivered": float(self.requests_redelivered),
        }


class RecoveryManager:
    """Reconstructs a freshly built node from one :class:`NodeStorage`."""

    def __init__(self, storage: NodeStorage, tracer=None):
        self.storage = storage
        #: Observability hook (``repro.obs.RequestTracer``); when set, each
        #: recovery phase emits one event so post-restart gaps in a request's
        #: span are attributable to the replay that bridged them.
        self.tracer = tracer

    def recover(self, node, now: float) -> RecoveryInfo:
        """Restore ``node`` (a fresh, not-yet-started ISS node) from storage.

        Returns the :class:`RecoveryInfo`; :func:`boot_from_storage` is
        the caller that then starts the node and its catch-up.
        """
        info = RecoveryInfo(node_id=node.node_id, resume_epoch=0)

        # Phase 1: one pass over the log, in append order.
        wal = self.storage.wal
        sealed = wal.sealed
        info.snapshot_entries = wal.sealed_count()
        certificates = [] if sealed is None else [sealed]
        for record in wal.records():
            if record.kind == RECORD_COMMIT:
                node.restore_entry(record.sn, record.entry, record.epoch)
                if record.sn >= info.snapshot_entries:
                    info.wal_entries_replayed += 1
            elif record.kind == RECORD_CHECKPOINT and (
                sealed is None or record.epoch >= sealed.epoch
            ):
                certificates.append(record.certificate)

        # Phase 2: the latest seal's certificate, then the ones above it.
        for certificate in certificates:
            if node.checkpoints.restore_stable(certificate):
                info.certificates_restored += 1

        # Phase 3: fast-forward epoch bookkeeping over the restored prefix.
        resume = 0
        while node.manager.epoch_complete(resume, node.log):
            node.manager.finish_epoch(resume, node.log)
            # The pre-crash incarnation already broadcast its CHECKPOINT for
            # this epoch; announcing again would only add stale wire noise.
            node.checkpoints.mark_announced(resume)
            # Same as a live epoch transition: advance the client watermarks.
            node.watermarks.advance_epoch()
            node.epochs_completed += 1
            resume += 1
        info.resume_epoch = resume
        tracer = self.tracer
        if tracer is not None:
            tracer.on_recovery(now, node.node_id, "snapshot", info.snapshot_entries)
            tracer.on_recovery(now, node.node_id, "wal-replay", info.wal_entries_replayed)
            tracer.on_recovery(now, node.node_id, "fast-forward", info.resume_epoch)

        # Replay contiguous delivery through the node's delivery listener,
        # so the application (and the metrics listeners) rebuild their state
        # from the restored prefix in the original order.  Neither client
        # acknowledgements nor the replies the listener returns are re-sent:
        # they went out before the crash, and clients treat a replayed
        # answer as a duplicate anyway.
        delivered = node.log.advance_delivery(now)
        info.requests_redelivered = len(delivered)
        if tracer is not None:
            tracer.on_recovery(now, node.node_id, "redeliver", info.requests_redelivered)
            if delivered:
                tracer.on_deliver_batch(now, node.node_id, delivered)
        on_deliver = node.on_deliver
        if on_deliver is not None:
            for item in delivered:
                on_deliver(node.node_id, item)
        # Same rule as a live delivery: delivered history is served from
        # storage, not held in memory.
        node.evict_delivered()
        return info


def boot_from_storage(
    node, storage: Optional[NodeStorage], now: float, tracer=None
) -> RecoveryInfo:
    """Boot a fresh node that must chase the cluster frontier.

    The one restart sequence shared by the simulator's restart and joiner
    paths and the live per-node process: recover from ``storage`` when it
    holds state (else resume at epoch 0 — a diskless restart or a brand-new
    joiner), start the node at the resume epoch, and begin the open-ended
    state-transfer catch-up for everything ordered while it was away.
    """
    if storage is not None and storage.has_state():
        info = RecoveryManager(storage, tracer=tracer).recover(node, now=now)
    else:
        info = RecoveryInfo(node_id=node.node_id, resume_epoch=0)
    node.start_at(info.resume_epoch)
    node.begin_recovery_catchup()
    return info


def watch_catchup(
    scheduler,
    interval: float,
    still_current: Callable[[], bool],
    caught_up: Callable[[], bool],
    on_caught_up: Callable[[], None],
) -> None:
    """Poll every ``interval`` until a booted node is back at the frontier.

    The one catch-up watcher behind restarts, joins, post-heal
    reconvergence and the live per-node process.  A watch is bound to the
    incarnation(s) it was started for: the tick that finds
    ``still_current()`` false gives up silently (whoever replaced the
    incarnation started a watch of its own, and the caller's record keeps
    its "never caught up" marker).  Otherwise the tick that finds
    ``caught_up()`` runs ``on_caught_up()`` — which ends the aggressive
    catch-up and fills the record — and any other tick re-arms.
    """

    def tick() -> None:
        if not still_current():
            return
        if caught_up():
            on_caught_up()
            return
        scheduler.schedule_callback(interval, tick)

    scheduler.schedule_callback(interval, tick)
