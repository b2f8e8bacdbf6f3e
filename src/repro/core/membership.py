"""Dynamic membership: configuration transactions ordered in the log.

ISS already recomputes leader sets, segments, and bucket assignments
deterministically at every epoch boundary, which makes the boundary the
natural reconfiguration point.  A membership change is submitted as an
ordinary request of the deployment's admin client whose payload carries
a *configuration transaction* (``ConfigTx``): add or remove one replica.
Any other client's magic-prefixed payload is plain data.  The request is
validated, bucketed, ordered, and committed exactly like any other
request; once the epoch that contains it completes, every node folds the
epoch's committed ConfigTxs — in sequence-number order — into the
membership view of the *next* epoch.  Because the fold is a pure
function of the committed log prefix, every correct node (including
nodes that reconstruct their log via WAL replay or state transfer)
derives the same view for every epoch without any extra agreement round.
A static deployment is the one-view case: no admin, so the genesis view
governs every epoch and supplies every quorum size.

The bucket space stays fixed at its genesis size; membership changes
only alter which leaders own which buckets, so request-to-bucket hashing
(Section 3.7) never needs re-keying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .types import ClientId, EpochNr, NodeId, Request, SeqNr

#: Magic prefix marking a request payload as a configuration transaction.
#: Ordinary client payloads are opaque application bytes; the prefix keeps
#: noting a committed batch cheap (a startswith per admin request).
CONFIG_TX_MAGIC = b"\x00ISSCFG1\x00"

ACTION_ADD = "add"
ACTION_REMOVE = "remove"

_ACTION_CODES = {ACTION_ADD: b"A", ACTION_REMOVE: b"R"}
_CODE_ACTIONS = {code: action for action, code in _ACTION_CODES.items()}


@dataclass(frozen=True)
class ConfigTx:
    """One membership change: add or remove a single replica."""

    action: str
    node: NodeId

    def __post_init__(self) -> None:
        if self.action not in _ACTION_CODES:
            raise ValueError(f"unknown config-tx action {self.action!r}")
        if self.node < 0:
            raise ValueError("config-tx node ids are non-negative")


def encode_config_tx(tx: ConfigTx) -> bytes:
    """Serialise a ConfigTx into a request payload."""
    return CONFIG_TX_MAGIC + _ACTION_CODES[tx.action] + tx.node.to_bytes(8, "little")


def decode_config_tx(payload: bytes) -> Optional[ConfigTx]:
    """Decode a request payload into a ConfigTx, or None if it is not one.

    Malformed payloads that carry the magic prefix decode to None rather
    than raising: a malicious client could submit garbage behind the magic
    and must not be able to crash the commit path.
    """
    if not payload.startswith(CONFIG_TX_MAGIC):
        return None
    body = payload[len(CONFIG_TX_MAGIC):]
    if len(body) != 9:
        return None
    action = _CODE_ACTIONS.get(body[:1])
    if action is None:
        return None
    return ConfigTx(action=action, node=int.from_bytes(body[1:], "little"))


@dataclass(frozen=True)
class MembershipView:
    """The replica set of one epoch plus the derived quorum sizes.

    The one place the fault threshold and the quorum sizes are computed:
    ``f`` is ``(n - 1) // 3`` Byzantine and ``(n - 1) // 2`` crash, and
    the strong quorum is the intersecting form of :attr:`strong_quorum`.
    A static deployment is the one-view case (:func:`genesis_view`), and
    :class:`repro.core.config.ISSConfig` reads its sizes from that view.
    """

    nodes: Tuple[NodeId, ...]
    byzantine: bool = True

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a membership view needs at least one node")
        if tuple(sorted(set(self.nodes))) != self.nodes:
            raise ValueError("membership nodes must be sorted and distinct")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def max_faulty(self) -> int:
        n = len(self.nodes)
        return (n - 1) // 3 if self.byzantine else (n - 1) // 2

    @property
    def strong_quorum(self) -> int:
        """Intersecting quorum for any view size.

        ⌈(n+f+1)/2⌉ in the Byzantine model (which coincides with ``2f+1``
        exactly when n = 3f+1) and a strict majority in the crash model:
        any two quorums share a correct node (Byzantine) or a node
        (crash).  ``2f+1`` alone is not enough once n ≢ 1 (mod 3): at
        n=6, f=1 it is 3, so the two halves of a 3|3 split each form a
        "quorum" and order different batches at the same position; a
        shrunken view (n=3, f=0, "quorum" of 1) lets a view change revoke
        a committed batch the same way.
        """
        n = len(self.nodes)
        if self.byzantine:
            return (n + self.max_faulty + 2) // 2
        return n // 2 + 1

    @property
    def weak_quorum(self) -> int:
        return self.max_faulty + 1

    def __contains__(self, node: NodeId) -> bool:
        return node in self.nodes

    def apply(self, txs: Sequence[ConfigTx]) -> "MembershipView":
        """Fold ConfigTxs into a new view.

        Adding a present node or removing an absent one is a no-op, which
        gives exactly-once activation by construction: a duplicate ConfigTx
        (e.g. a retried submission committed twice) changes nothing.  A
        removal that would empty the view is ignored — the system never
        reconfigures itself out of existence.
        """
        members = set(self.nodes)
        for tx in txs:
            if tx.action == ACTION_ADD:
                members.add(tx.node)
            elif tx.action == ACTION_REMOVE and len(members) > 1:
                members.discard(tx.node)
        nodes = tuple(sorted(members))
        if nodes == self.nodes:
            return self
        return MembershipView(nodes=nodes, byzantine=self.byzantine)


def genesis_view(config) -> MembershipView:
    """The genesis membership: nodes ``0 .. num_nodes-1`` of the config."""
    return MembershipView(
        nodes=tuple(range(config.num_nodes)), byzantine=config.byzantine
    )


class MembershipTracker:
    """Derives the membership view of every epoch from the committed log.

    ``view(0)`` is the genesis configuration; ``view(e + 1)`` is ``view(e)``
    with the ConfigTxs committed in epoch ``e``'s sequence numbers folded in,
    in sequence-number order (ties within a batch resolve in batch order).
    Only requests of the ``admin_client`` identity count as ConfigTxs; with
    no admin (a static deployment) every epoch has the genesis view.

    Every delivery path of the node (SB-DELIVER, state transfer, recovery
    replay) hands each committed batch to :meth:`note_commit`, and epochs
    *seal* strictly in order as they complete — the same order in which
    the epoch manager finishes them — folding what was noted.  A seal reads
    nothing back from the log, so a node that rebuilds its log through WAL
    replay or state transfer reconstructs identical views for free.
    """

    def __init__(self, config, admin_client: Optional[ClientId]) -> None:
        self.config = config
        self.admin_client = admin_client
        self._views: Dict[EpochNr, MembershipView] = {0: genesis_view(config)}
        self._sealed_through: EpochNr = -1
        #: The admin's ConfigTxs per unsealed epoch, by sequence number.
        self._noted: Dict[EpochNr, Dict[SeqNr, List[ConfigTx]]] = {}
        #: (epoch, added, removed) per activation that changed the view.
        self.activations: List[Tuple[EpochNr, Tuple[NodeId, ...], Tuple[NodeId, ...]]] = []
        #: ConfigTxs committed so far, in seal order (for metrics/tests).
        self.committed_txs: List[Tuple[EpochNr, ConfigTx]] = []

    def note_commit(self, sn: SeqNr, requests: Sequence[Request]) -> None:
        """Note the admin's ConfigTxs among one committed batch's requests."""
        admin = self.admin_client
        if admin is None:
            return
        txs = []
        for request in requests:
            if request.rid.client == admin:
                tx = decode_config_tx(request.payload)
                if tx is not None:
                    txs.append(tx)
        if txs:
            epoch = sn // self.config.epoch_length
            self._noted.setdefault(epoch, {})[sn] = txs

    def view_for(self, epoch: EpochNr) -> MembershipView:
        """The membership view governing ``epoch``.

        Views only change at seal points; for an epoch beyond the sealed
        frontier the latest sealed view applies (epochs complete strictly
        sequentially, so by the time an epoch actually starts its
        predecessor has sealed).
        """
        view = self._views.get(epoch)
        if view is not None:
            return view
        bound = min(epoch, self._sealed_through + 1)
        while bound >= 0:
            view = self._views.get(bound)
            if view is not None:
                return view
            bound -= 1
        return self._views[0]

    def view_settled(self, epoch: EpochNr) -> bool:
        """Whether :meth:`view_for` is authoritative for ``epoch``.

        True up to the epoch after the seal frontier; beyond it a node still
        catching up only estimates.  Without an admin no view ever changes,
        so every epoch's view is settled.
        """
        return self.admin_client is None or epoch <= self._sealed_through + 1

    def seal_epoch(self, epoch: EpochNr) -> Tuple[Tuple[NodeId, ...], Tuple[NodeId, ...]]:
        """Fold epoch ``epoch``'s committed ConfigTxs into ``view(epoch+1)``.

        Idempotent; returns the (added, removed) node tuples of this
        activation (both empty when the view did not change).  Requires the
        epoch's log positions to be committed, which holds at every call
        site (the epoch manager only finishes complete epochs).
        """
        if epoch <= self._sealed_through:
            return ((), ())
        if epoch != self._sealed_through + 1 and self._sealed_through >= 0:
            # Seal any skipped predecessors first (defensive; epochs finish
            # sequentially in practice).
            for missing in range(self._sealed_through + 1, epoch):
                self.seal_epoch(missing)
        current = self.view_for(epoch)
        noted = self._noted.pop(epoch, {})
        txs = [tx for sn in sorted(noted) for tx in noted[sn]]
        self.committed_txs.extend((epoch, tx) for tx in txs)
        new_view = current.apply(txs)
        self._sealed_through = epoch
        if new_view is not current:
            self._views[epoch + 1] = new_view
            old = set(current.nodes)
            new = set(new_view.nodes)
            added = tuple(sorted(new - old))
            removed = tuple(sorted(old - new))
            self.activations.append((epoch + 1, added, removed))
            return (added, removed)
        return ((), ())

    @property
    def sealed_through(self) -> EpochNr:
        return self._sealed_through

    def current_view(self) -> MembershipView:
        return self.view_for(self._sealed_through + 1)
