"""Single-leader baselines (the original PBFT / HotStuff / Raft deployments).

The evaluation (Figure 5/6) compares ISS against the respective single-leader
protocols.  As documented in docs/ARCHITECTURE.md, "Model and substitutions",
this repository obtains those baselines by deploying the *same* protocol engines with a single, fixed
leader over the whole log: node 0 leads a single segment per epoch and owns
every bucket, so every batch flows through its network interface — the exact
bottleneck that caps single-leader throughput at roughly ``1/n``.

Using the identical engines isolates the one variable the paper studies
(single leader vs. ISS multiplexing) and removes implementation-quality
noise from the comparison.
"""

from __future__ import annotations

from typing import List

from ..core.config import ISSConfig, paper_config
from ..core.leader_policy import FailureHistory, LeaderSelectionPolicy
from ..core.types import EpochNr, NodeId


class FixedLeaderPolicy(LeaderSelectionPolicy):
    """Leader-selection policy that always returns the same single leader.

    With one leader per epoch there is exactly one segment spanning the whole
    epoch and the bucket re-assignment degenerates to "everything belongs to
    the leader", which is precisely the original single-leader protocol's
    behaviour.
    """

    def __init__(self, num_nodes: int, max_faulty: int, leader: NodeId = 0):
        super().__init__(num_nodes, max_faulty)
        if not 0 <= leader < num_nodes:
            raise ValueError("leader out of range")
        self.leader = leader

    @property
    def name(self) -> str:
        return f"fixed-leader-{self.leader}"

    def leaders(self, epoch: EpochNr, history: FailureHistory) -> List[NodeId]:
        return [self.leader]


def single_leader_config(protocol: str, num_nodes: int, **overrides) -> ISSConfig:
    """Configuration for the single-leader baseline of ``protocol``.

    Differences from the ISS configuration (Table 1):

    * no deployment-wide batch rate — the lone leader proposes as fast as its
      batch timeouts allow, exactly like the stock protocol, so its NIC (not
      an artificial rate limit) is what saturates;
    * the minimum segment size constraint is irrelevant (one segment).
    """
    overrides.setdefault("batch_rate", None)
    overrides.setdefault("min_segment_size", 1)
    return paper_config(protocol, num_nodes, **overrides)


def single_leader_policy(config: ISSConfig, leader: NodeId = 0) -> FixedLeaderPolicy:
    """The fixed-leader policy matching :func:`single_leader_config`."""
    return FixedLeaderPolicy(config.num_nodes, config.max_faulty, leader=leader)
