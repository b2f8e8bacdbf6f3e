"""WAN latency model.

The paper deploys nodes uniformly across 16 datacenters spread over Europe,
America, Australia and Asia (Section 6.1).  We reproduce that topology with a
synthetic latency matrix: datacenters are placed on a ring of continents and
the one-way latency between two datacenters grows with their "distance",
bounded by a configurable mean.  The exact milliseconds do not matter for the
reproduction; what matters is that cross-datacenter hops cost tens of
milliseconds while intra-datacenter hops cost sub-millisecond, as on the real
testbed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..core.config import NetworkConfig
from ..core.types import NodeId


#: Names of the 16 datacenter locations used in the paper's deployment
#: (IBM Cloud regions across four continents).  Only used for reporting.
DATACENTER_NAMES: Tuple[str, ...] = (
    "dallas", "washington", "san-jose", "toronto",
    "frankfurt", "london", "paris", "milan",
    "amsterdam", "madrid", "sao-paulo", "mexico",
    "tokyo", "osaka", "sydney", "chennai",
)


class LatencyModel:
    """Pairwise one-way latency between nodes placed in datacenters."""

    def __init__(self, config: NetworkConfig, num_nodes: int):
        config.validate()
        self.config = config
        self.num_nodes = num_nodes
        self._rng = random.Random(config.random_seed)
        self.placement: Dict[NodeId, int] = {
            node: node % config.num_datacenters for node in range(num_nodes)
        }
        if config.dc_latency_matrix is not None:
            # Explicit measured matrix (e.g. the WAN-region scenarios);
            # copied so later config mutation cannot skew a running model.
            self._dc_latency = [list(row) for row in config.dc_latency_matrix]
        else:
            self._dc_latency = self._build_dc_matrix(config.num_datacenters)

    def _build_dc_matrix(self, num_dcs: int) -> List[List[float]]:
        """Build a symmetric datacenter-to-datacenter latency matrix.

        Distance on a ring of datacenters is used as a proxy for geographic
        distance; latencies are spread between 25% and 175% of the configured
        mean inter-datacenter latency.
        """
        base = self.config.inter_dc_latency
        matrix = [[0.0] * num_dcs for _ in range(num_dcs)]
        for a in range(num_dcs):
            for b in range(a + 1, num_dcs):
                ring_distance = min(abs(a - b), num_dcs - abs(a - b))
                max_distance = max(1, num_dcs // 2)
                scale = 0.25 + 1.5 * (ring_distance / max_distance)
                latency = base * scale
                matrix[a][b] = latency
                matrix[b][a] = latency
        return matrix

    def datacenter_of(self, node: NodeId) -> int:
        return self.placement[node]

    def datacenter_name(self, node: NodeId) -> str:
        dc = self.placement[node] % len(DATACENTER_NAMES)
        return DATACENTER_NAMES[dc]

    def base_latency(self, src: NodeId, dst: NodeId) -> float:
        """One-way propagation latency between two nodes, without jitter."""
        if src == dst:
            return 0.0
        dc_src = self.placement.get(src, src % self.config.num_datacenters)
        dc_dst = self.placement.get(dst, dst % self.config.num_datacenters)
        if dc_src == dc_dst:
            return self.config.intra_dc_latency
        return self._dc_latency[dc_src][dc_dst]

    def sample_latency(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        """Base latency plus multiplicative jitter drawn from ``rng``."""
        base = self.base_latency(src, dst)
        if base == 0.0:
            return 0.0
        jitter = self.config.jitter
        if jitter <= 0:
            return base
        factor = 1.0 + rng.uniform(-jitter, jitter)
        return max(0.0, base * factor)

    def mean_latency(self) -> float:
        """Average pairwise latency across all node pairs (reporting aid)."""
        total = 0.0
        pairs = 0
        for a in range(self.num_nodes):
            for b in range(self.num_nodes):
                if a == b:
                    continue
                total += self.base_latency(a, b)
                pairs += 1
        return total / pairs if pairs else 0.0

    def register_extra_endpoints(self, endpoints: Sequence[NodeId]) -> None:
        """Place additional endpoints (e.g. clients) across datacenters."""
        for endpoint in endpoints:
            if endpoint not in self.placement:
                self.placement[endpoint] = (
                    self._rng.randrange(self.config.num_datacenters)
                )

    def register_extra_nodes(self, nodes: Sequence[NodeId]) -> None:
        """Place replica endpoints beyond the genesis set (dynamic-membership
        joiners) with the same deterministic round-robin rule genesis nodes
        use — no RNG draw, so scheduling a join cannot perturb the placement
        of anything registered after it."""
        for node in nodes:
            if node not in self.placement:
                self.placement[node] = node % self.config.num_datacenters
