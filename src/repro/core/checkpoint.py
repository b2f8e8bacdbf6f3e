"""ISS checkpointing (Section 3.5).

At the end of every epoch — once the log holds an entry for each of the
epoch's sequence numbers — every node broadcasts a signed CHECKPOINT message
carrying the epoch's last sequence number and the Merkle root of the epoch's
entry digests.  A strong quorum of the epoch's membership view (``2f+1``
when n = 3f+1) of matching, correctly signed CHECKPOINT messages from
members forms a *stable checkpoint*, after which the epoch's SB instances
can be garbage collected and slow nodes can state-transfer the epoch instead
of replaying it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..crypto.hashing import hash_int
from ..crypto.merkle import merkle_root
from ..crypto.signatures import KeyStore
from ..runtime.codec import BYTES, INT, register
from ..runtime.wire import register_batchable
from .config import ISSConfig
from .log import Log
from .membership import MembershipTracker
from .segment import epoch_last_sn, epoch_seq_nrs
from .types import CheckpointCertificate, EpochNr, NodeId, SeqNr


@register_batchable
@dataclass(frozen=True)
class CheckpointMsg:
    """Signed ⟨CHECKPOINT, max(Sn(e)), D(e), σ_i⟩ message.

    Batchable: checkpoint votes are digest-sized and latency-tolerant, so
    they may share a wire frame with other votes on the same link.
    """

    epoch: EpochNr
    last_sn: SeqNr
    log_root: bytes
    sender: NodeId
    signature: bytes

    def wire_size(self) -> int:
        return 8 + 8 + len(self.log_root) + 8 + len(self.signature)


register(
    CheckpointMsg, 0x50, epoch=INT, last_sn=INT, log_root=BYTES, sender=INT, signature=BYTES
)


def checkpoint_signing_payload(epoch: EpochNr, last_sn: SeqNr, log_root: bytes) -> bytes:
    """Canonical byte string a node signs inside its CHECKPOINT message."""
    return b"checkpoint" + hash_int(epoch) + hash_int(last_sn) + log_root


def epoch_log_root(log: Log, epoch: EpochNr, epoch_length: int) -> bytes:
    """``D(e)``: Merkle root of the digests of the epoch's log entries."""
    digests = log.digests_in(epoch_seq_nrs(epoch, epoch_length))
    return merkle_root(digests)


class CheckpointProtocol:
    """Per-node state of the checkpointing sub-protocol.

    The host ISS node calls :meth:`local_epoch_complete` when its own log
    covers an epoch and :meth:`handle_message` for incoming CHECKPOINT
    messages; :attr:`on_stable` fires exactly once per epoch when the
    strong quorum is reached locally.
    """

    def __init__(
        self,
        node_id: NodeId,
        config: ISSConfig,
        key_store: KeyStore,
        broadcast_fn: Callable[[object], None],
        on_stable: Callable[[EpochNr, CheckpointCertificate], None],
        membership: MembershipTracker,
    ):
        self.node_id = node_id
        self.config = config
        self.key_store = key_store
        self._broadcast = broadcast_fn
        self.on_stable = on_stable
        #: The node's membership tracker: each epoch's view gives the
        #: quorum size and the admissible signer set.  A catching-up node
        #: only estimates views beyond its seal frontier, so the signer-set
        #: check is deferred there (quorum-many valid distinct signatures
        #: are still required).
        self.membership = membership
        #: Signatures per (epoch, last_sn, root) of unstable epochs: sender -> signature.
        self._received: Dict[Tuple[EpochNr, SeqNr, bytes], Dict[NodeId, bytes]] = {}
        self._stable: Dict[EpochNr, CheckpointCertificate] = {}
        self._announced_local: set = set()
        #: CHECKPOINT messages rejected for a bad or mis-attributed signature
        #: (a Byzantine voter forging votes lands here).
        self.invalid_signatures_rejected = 0

    # ----------------------------------------------------------- local side
    def local_epoch_complete(self, epoch: EpochNr, log: Log) -> None:
        """Broadcast our CHECKPOINT message for a locally complete epoch."""
        if epoch in self._announced_local:
            return
        self._announced_local.add(epoch)
        last_sn = epoch_last_sn(epoch, self.config.epoch_length)
        root = epoch_log_root(log, epoch, self.config.epoch_length)
        payload = checkpoint_signing_payload(epoch, last_sn, root)
        signature = self.key_store.sign(self.node_id, payload)
        message = CheckpointMsg(
            epoch=epoch, last_sn=last_sn, log_root=root, sender=self.node_id,
            signature=signature,
        )
        self._broadcast(message)
        # Count our own message towards the quorum immediately.
        self._record(message)

    # --------------------------------------------------------- message side
    def handle_message(self, src: NodeId, message: CheckpointMsg) -> None:
        if not isinstance(message, CheckpointMsg):
            return
        if message.sender != src:
            self.invalid_signatures_rejected += 1
            return
        payload = checkpoint_signing_payload(message.epoch, message.last_sn, message.log_root)
        if not self.key_store.verify(message.sender, payload, message.signature):
            self.invalid_signatures_rejected += 1
            return
        if message.epoch in self._stable:
            # A vote that arrived after the quorum: nothing will ask again.
            self.key_store.forget(message.sender, payload)
            return
        self._record(message)

    def _quorum_for(self, epoch: EpochNr) -> int:
        return self.membership.view_for(epoch).strong_quorum

    def _members_for(self, epoch: EpochNr):
        """Admissible signer set of ``epoch``, or None while its view is
        only an estimate (beyond the seal frontier of a node catching up
        on a reconfigured cluster)."""
        if not self.membership.view_settled(epoch):
            return None
        return self.membership.view_for(epoch).nodes

    def _record(self, message: CheckpointMsg) -> None:
        if message.epoch in self._stable:
            return
        members = self._members_for(message.epoch)
        if members is not None and message.sender not in members:
            # Votes from replicas outside the epoch's membership (e.g. a
            # removed node's stale broadcast) never count towards stability.
            return
        key = (message.epoch, message.last_sn, message.log_root)
        signatures = self._received.setdefault(key, {})
        signatures[message.sender] = message.signature
        if len(signatures) >= self._quorum_for(message.epoch):
            certificate = CheckpointCertificate(
                epoch=message.epoch,
                last_sn=message.last_sn,
                log_root=message.log_root,
                signatures=tuple(sorted(signatures.items())),
            )
            self._stable[message.epoch] = certificate
            self._drop_votes(certificate)
            self.on_stable(message.epoch, certificate)

    def _drop_votes(self, certificate: CheckpointCertificate) -> None:
        """Forget a stable epoch's tallies (all roots) and the key-store memo
        entries of their voters and of the certificate's signers."""
        forget = self.key_store.forget
        for key in [key for key in self._received if key[0] == certificate.epoch]:
            payload = checkpoint_signing_payload(*key)
            for sender in self._received.pop(key):
                forget(sender, payload)
        payload = checkpoint_signing_payload(
            certificate.epoch, certificate.last_sn, certificate.log_root
        )
        for node, _signature in certificate.signatures:
            forget(node, payload)

    # ----------------------------------------------------------- restoration
    def restore_stable(self, certificate: CheckpointCertificate) -> bool:
        """Install an externally obtained stable certificate.

        Used by state transfer (a verified response carries the epoch's
        certificate) and by crash recovery (certificates replayed from the
        write-ahead log).  Fires :attr:`on_stable` exactly as a locally
        reached quorum would, so the epoch's SB instances are garbage
        collected; returns False when the epoch was already stable.

        The epoch is also marked announced: it is provably stable at a
        strong quorum of peers already, so broadcasting our own CHECKPOINT
        vote for it when the local log later completes would only add stale
        wire noise.
        """
        epoch = certificate.epoch
        # Even when already stable: verify_certificate memoized its signers.
        self._drop_votes(certificate)
        if epoch in self._stable:
            return False
        self._stable[epoch] = certificate
        self._announced_local.add(epoch)
        self.on_stable(epoch, certificate)
        return True

    def mark_announced(self, epoch: EpochNr) -> None:
        """Suppress the local CHECKPOINT broadcast for ``epoch``.

        Crash recovery marks every epoch the pre-crash incarnation already
        announced, so the restarted node does not replay stale votes.
        """
        self._announced_local.add(epoch)

    # -------------------------------------------------------------- queries
    def stable_checkpoint(self, epoch: EpochNr) -> Optional[CheckpointCertificate]:
        return self._stable.get(epoch)

    def latest_stable_epoch(self) -> Optional[EpochNr]:
        return max(self._stable) if self._stable else None

    def verify_certificate(self, certificate: CheckpointCertificate) -> bool:
        """Check a certificate received from a peer (used by state transfer).

        The quorum size and the admissible signer set are those of the
        certificate's epoch as far as this node has sealed it; for epochs
        beyond the local seal frontier of a reconfigured cluster the latest
        sealed view's quorum applies and signers are not restricted (a
        catching-up node tightens retroactively as it seals — certificates
        are re-served on demand, never cached unverified).
        """
        if len(certificate.signatures) < self._quorum_for(certificate.epoch):
            return False
        members = self._members_for(certificate.epoch)
        payload = checkpoint_signing_payload(
            certificate.epoch, certificate.last_sn, certificate.log_root
        )
        seen: set = set()
        for node, signature in certificate.signatures:
            if node in seen:
                return False
            if members is not None and node not in members:
                return False
            if not self.key_store.verify(node, payload, signature):
                return False
            seen.add(node)
        return True
