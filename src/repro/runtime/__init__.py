"""Transport-agnostic runtime boundary between protocols and backends.

This package defines the *narrow* interface an ISS node (and every protocol
underneath it — PBFT, HotStuff, Raft) needs from its execution environment,
plus the environment-independent pieces of the wire layer that used to live
inside the simulator package:

* :mod:`repro.runtime.api` — the :class:`Scheduler` / :class:`Timer` /
  :class:`Transport` protocols both backends implement (the discrete-event
  :class:`~repro.sim.simulator.Simulator` + :class:`~repro.sim.network.Network`
  pair for deterministic CI, and the wall-clock asyncio/TCP backend in
  :mod:`repro.net` for live deployments),
* :mod:`repro.runtime.wire` — wire-size estimation and cross-protocol
  small-message batching (pure message-level logic, usable over any
  scheduler), and
* :mod:`repro.runtime.faults` — the pure-data fault specification
  dataclasses (crash, restart, straggler, Byzantine, malicious client,
  partition, link fault, membership change) consumed by both the
  simulator's fault injector and the protocol code that honours them.

The layering contract — enforced by ``tests/test_layering.py`` — is that
nothing under ``core/``, ``pbft/``, ``hotstuff/`` or ``raft/`` may import
(even transitively) from ``repro.sim``; everything those layers need from
their environment comes from here.
"""

from .api import FaultNotifier, Scheduler, Timer, Transport
from .faults import (
    ByzantineSpec,
    CrashSpec,
    MaliciousClientSpec,
    MembershipSpec,
    RestartSpec,
    StragglerSpec,
)
from .wire import (
    BATCH_HEADER_BYTES,
    MessageBatcher,
    MessageBatchMsg,
    is_batchable,
    register_batchable,
    wire_size,
)

__all__ = [
    "FaultNotifier",
    "Scheduler",
    "Timer",
    "Transport",
    "ByzantineSpec",
    "CrashSpec",
    "MaliciousClientSpec",
    "MembershipSpec",
    "RestartSpec",
    "StragglerSpec",
    "BATCH_HEADER_BYTES",
    "MessageBatcher",
    "MessageBatchMsg",
    "is_batchable",
    "register_batchable",
    "wire_size",
]
