"""Shared fixtures and helpers for the test suite.

The most important helper is :class:`SBTestBed`, a miniature deployment that
runs a set of Sequenced-Broadcast instances (one per node) for a single
segment over the simulated network, without the full ISS node around them.
Protocol tests (PBFT, HotStuff, Raft) use it to check the
SB properties in isolation; integration tests use the full
:class:`repro.harness.Deployment` instead.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.core.config import ISSConfig, NetworkConfig
from repro.core.sb import SBContext, SBInstance
from repro.core.types import Batch, NIL, Request, RequestId, SegmentDescriptor, is_nil
from repro.crypto.signatures import KeyStore
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.simulator import Simulator


def make_request(client: int = 0, timestamp: int = 0, payload: bytes = b"op") -> Request:
    """Unsigned request helper for tests that skip signature verification."""
    return Request(rid=RequestId(client=client, timestamp=timestamp), payload=payload)


def make_signed_request(key_store: KeyStore, client: int, timestamp: int, payload: bytes = b"op") -> Request:
    from repro.core.validation import sign_request

    return sign_request(key_store, make_request(client, timestamp, payload))


def make_batch(*requests: Request) -> Batch:
    return Batch.of(requests)


class SBTestBed:
    """Runs one SB instance per node for a single segment over the simulator.

    Each node's context draws proposals from a per-node request queue
    (``feed_requests``), accepts every batch as valid by default, and records
    deliveries in ``delivered[node][sn]``.
    """

    def __init__(
        self,
        num_nodes: int,
        factory: Callable[[SBContext], SBInstance],
        segment: Optional[SegmentDescriptor] = None,
        config: Optional[ISSConfig] = None,
        network_config: Optional[NetworkConfig] = None,
        validate: Optional[Callable[[int, Batch], bool]] = None,
        seed: int = 1,
    ):
        self.config = config or ISSConfig(
            num_nodes=num_nodes,
            protocol="pbft",
            epoch_length=8,
            max_batch_size=4,
            batch_rate=None,
            min_batch_timeout=0.0,
            max_batch_timeout=0.2,
            view_change_timeout=3.0,
            epoch_change_timeout=3.0,
            client_signatures=False,
        )
        self.segment = segment or SegmentDescriptor(
            epoch=0, leader=0, seq_nrs=(0, 1, 2, 3), buckets=tuple(range(self.config.num_buckets))
        )
        self.sim = Simulator(seed=seed)
        net_config = network_config or NetworkConfig(
            bandwidth_bps=1e9, inter_dc_latency=0.02, intra_dc_latency=0.001, jitter=0.0
        )
        self.latency = LatencyModel(net_config, num_nodes)
        self.network = Network(self.sim, net_config, self.latency)
        self.key_store = KeyStore(deployment_seed=seed)
        self.num_nodes = num_nodes
        self._validate = validate
        #: Per-node queues of requests available for batching.
        self.request_queues: Dict[int, List[Request]] = {n: [] for n in range(num_nodes)}
        #: delivered[node][sn] = value
        self.delivered: Dict[int, Dict[int, object]] = {n: {} for n in range(num_nodes)}
        #: proposed[node][sn] = batch handed out by cut_batch
        self.proposed: Dict[int, Dict[int, Batch]] = {n: {} for n in range(num_nodes)}
        self.instances: List[SBInstance] = []
        self.contexts: List[SBContext] = []
        for node in range(num_nodes):
            context = self._build_context(node)
            self.contexts.append(context)
            self.instances.append(factory(context))
            self.network.register(node, self._make_handler(node))

    # ------------------------------------------------------------ wiring
    def _make_handler(self, node: int) -> Callable[[int, object], None]:
        def handler(src: int, message: object) -> None:
            self.instances[node].handle_message(src, message)

        return handler

    def _build_context(self, node: int) -> SBContext:
        def cut_batch(sn: int, node=node) -> Batch:
            queue = self.request_queues[node]
            taken = queue[: self.config.max_batch_size]
            del queue[: len(taken)]
            batch = Batch.of(taken)
            self.proposed[node][sn] = batch
            return batch

        def validate(batch: Batch, node=node) -> bool:
            if self._validate is None:
                return True
            return self._validate(node, batch)

        def deliver(sn: int, value: object, node=node) -> None:
            assert sn not in self.delivered[node], f"node {node} delivered sn {sn} twice"
            self.delivered[node][sn] = value

        return SBContext(
            node_id=node,
            config=self.config,
            segment=self.segment,
            all_nodes=list(range(self.num_nodes)),
            send_fn=lambda dst, msg, node=node: self.network.send(node, dst, msg),
            local_fn=lambda msg, node=node: self.sim.call_soon(
                lambda: self.instances[node].handle_message(node, msg)
            ),
            multicast_fn=lambda dsts, msg, node=node: self.network.multicast(node, dsts, msg),
            schedule_fn=self.sim.schedule,
            now_fn=lambda: self.sim.now,
            cut_batch_fn=cut_batch,
            validate_batch_fn=validate,
            deliver_fn=deliver,
            pending_fn=lambda node=node: len(self.request_queues[node]),
            timeout_jitter_fn=lambda: 1.0,
            key_store=self.key_store,
        )

    # ------------------------------------------------------------ control
    def feed_requests(self, node: int, count: int, client: int = 0, start_ts: int = 0) -> List[Request]:
        requests = [make_request(client=client, timestamp=start_ts + i) for i in range(count)]
        self.request_queues[node].extend(requests)
        return requests

    def start_all(self) -> None:
        for instance in self.instances:
            instance.start()

    def start(self, nodes: List[int]) -> None:
        for node in nodes:
            self.instances[node].start()

    def crash(self, node: int) -> None:
        self.network.crash(node)
        self.instances[node].stop()

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    # ----------------------------------------------------------- assertions
    def correct_nodes(self) -> List[int]:
        return [n for n in range(self.num_nodes) if not self.network.is_crashed(n)]

    def assert_termination(self, nodes: Optional[List[int]] = None) -> None:
        """SB3: every (correct) node delivered something for every sequence number."""
        for node in nodes if nodes is not None else self.correct_nodes():
            missing = [sn for sn in self.segment.seq_nrs if sn not in self.delivered[node]]
            assert not missing, f"node {node} missing deliveries for {missing}"

    def assert_agreement(self) -> None:
        """SB2: no two correct nodes delivered different values for the same sn."""
        reference: Dict[int, bytes] = {}
        for node in self.correct_nodes():
            for sn, value in self.delivered[node].items():
                digest = value.digest() if not is_nil(value) else b"NIL"
                if sn in reference:
                    assert reference[sn] == digest, f"disagreement at sn {sn}"
                else:
                    reference[sn] = digest


@pytest.fixture
def key_store() -> KeyStore:
    return KeyStore(deployment_seed=99)


@pytest.fixture
def small_config() -> ISSConfig:
    return ISSConfig(
        num_nodes=4,
        protocol="pbft",
        epoch_length=8,
        max_batch_size=8,
        batch_rate=16.0,
        max_batch_timeout=0.5,
        view_change_timeout=3.0,
        epoch_change_timeout=3.0,
    )
