"""The Orderer module (Section 4.1).

The Manager announces segments; the Orderer instantiates, for each segment,
an implementation of the Sequenced Broadcast protocol parametrised by that
segment and keeps the table that routes incoming protocol messages to the
right instance.  The ``Segment(s)`` / ``Announce(b, sn)`` interface from the
paper maps to :meth:`Orderer.open_segment` and the ``deliver_fn`` of the
instance's :class:`~repro.core.sb.SBContext`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from .config import ISSConfig, PROTOCOL_HOTSTUFF, PROTOCOL_PBFT, PROTOCOL_RAFT
from .sb import InstanceId, SBContext, SBInstance
from .types import EpochNr

#: Factory signature: build an SB instance from its context.
SBFactory = Callable[[SBContext], SBInstance]


def default_factory(config: ISSConfig) -> SBFactory:
    """Return the SB-implementation factory for the configured protocol."""
    protocol = config.protocol
    if protocol == PROTOCOL_PBFT:
        from ..pbft.pbft import PbftSB

        return lambda context: PbftSB(context)
    if protocol == PROTOCOL_HOTSTUFF:
        from ..hotstuff.hotstuff import HotStuffSB

        return lambda context: HotStuffSB(context)
    if protocol == PROTOCOL_RAFT:
        from ..raft.raft import RaftSB

        return lambda context: RaftSB(context)
    raise ValueError(f"unknown protocol {protocol!r}")


class Orderer:
    """Owns the active SB instances of one node."""

    def __init__(self, factory: SBFactory):
        self._factory = factory
        #: The routing table: live instances by ``(epoch, leader)``.  The
        #: host node looks every incoming protocol message up here directly
        #: (one dict hit per vote); the dict is only ever mutated in place.
        self.instances: Dict[InstanceId, SBInstance] = {}
        #: Instances grouped by epoch, for garbage collection.
        self._by_epoch: Dict[EpochNr, List[InstanceId]] = {}
        self.instances_created = 0
        self.instances_stopped = 0

    # -------------------------------------------------------------- segments
    def open_segment(self, context: SBContext) -> SBInstance:
        """``Segment(s)``: create and start the SB instance for a segment."""
        instance = self._factory(context)
        instance_id = context.segment.instance_id
        self.instances[instance_id] = instance
        self._by_epoch.setdefault(context.segment.epoch, []).append(instance_id)
        self.instances_created += 1
        instance.start()
        return instance

    def active_instances(self) -> Iterable[SBInstance]:
        return self.instances.values()

    # ----------------------------------------------------- garbage collection
    def stop_epoch(self, epoch: EpochNr) -> None:
        """Stop and drop every instance of ``epoch`` (after a stable checkpoint)."""
        for instance_id in self._by_epoch.pop(epoch, []):
            instance = self.instances.pop(instance_id, None)
            if instance is not None:
                instance.stop()
                self.instances_stopped += 1

    def stop_all(self) -> None:
        for instance in self.instances.values():
            instance.stop()
        self.instances_stopped += len(self.instances)
        self.instances.clear()
        self._by_epoch.clear()
