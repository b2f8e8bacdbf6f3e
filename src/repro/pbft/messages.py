"""PBFT protocol messages (per Sequenced-Broadcast instance).

Message identities (sender) come from the authenticated point-to-point
channel of the simulated network, matching the paper's PBFT implementation
which avoids signatures on common-case protocol messages; view-change
messages are treated as signed (Castro-Liskov'01 style, Section 4.2.1) which
in the simulation simply means their content is trusted to be attributable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.types import LOG_ENTRY, LogEntry, SeqNr, ViewNr, is_nil
from ..runtime.codec import BYTES, INT, nested, register, tuple_of
from ..runtime.wire import register_batchable


def entry_wire_size(entry: LogEntry) -> int:
    """Wire size of a batch or ⊥ payload."""
    if entry is None:
        return 0
    if is_nil(entry):
        return 1
    return entry.size_bytes()


@dataclass(frozen=True)
class PrePrepare:
    """Leader's proposal assigning ``value`` to ``sn`` in ``view``."""

    view: ViewNr
    sn: SeqNr
    value: LogEntry
    digest: bytes

    def wire_size(self) -> int:
        return 64 + entry_wire_size(self.value)


@register_batchable
@dataclass(frozen=True)
class Prepare:
    """Follower vote echoing the proposal digest.

    Batchable: votes for different slots/instances travelling the same link
    within one flush tick share a wire frame (see :mod:`repro.runtime.wire`).
    """

    view: ViewNr
    sn: SeqNr
    digest: bytes

    def wire_size(self) -> int:
        return 80


@register_batchable
@dataclass(frozen=True)
class Commit:
    """Second-phase vote; 2f+1 of these commit the value.  Batchable."""

    view: ViewNr
    sn: SeqNr
    digest: bytes

    def wire_size(self) -> int:
        return 80


@dataclass(frozen=True)
class PreparedProof:
    """Evidence that a value was prepared for ``sn`` in ``view``.

    Carried inside view-change messages so the new leader can re-propose the
    value (only values initially proposed by the segment leader can ever be
    prepared, preserving the SB design rules of Section 4.2).
    """

    view: ViewNr
    sn: SeqNr
    digest: bytes
    value: LogEntry

    def wire_size(self) -> int:
        return 96 + entry_wire_size(self.value)


@dataclass(frozen=True)
class ViewChange:
    """Signed view-change message carrying all locally prepared proofs."""

    new_view: ViewNr
    prepared: Tuple[PreparedProof, ...]

    def wire_size(self) -> int:
        return 96 + sum(p.wire_size() for p in self.prepared)


@dataclass(frozen=True)
class NewView:
    """New leader's message installing ``new_view``.

    ``preprepares`` contains one PrePrepare per not-yet-committed sequence
    number: prepared values are carried over, everything else becomes ⊥.
    """

    new_view: ViewNr
    preprepares: Tuple[PrePrepare, ...]

    def wire_size(self) -> int:
        return 96 + sum(p.wire_size() for p in self.preprepares)


register(PrePrepare, 0x20, view=INT, sn=INT, value=LOG_ENTRY, digest=BYTES)
register(Prepare, 0x21, view=INT, sn=INT, digest=BYTES)
register(Commit, 0x22, view=INT, sn=INT, digest=BYTES)
register(PreparedProof, 0x23, view=INT, sn=INT, digest=BYTES, value=LOG_ENTRY)
register(ViewChange, 0x24, new_view=INT, prepared=tuple_of(nested(PreparedProof)))
register(NewView, 0x25, new_view=INT, preprepares=tuple_of(nested(PrePrepare)))
