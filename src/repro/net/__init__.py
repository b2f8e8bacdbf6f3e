"""Live deployment backend: asyncio TCP transport over real processes.

This package is the second implementation of the runtime boundary
(:mod:`repro.runtime.api`) — the first being the discrete-event simulator
in :mod:`repro.sim`.  The same protocol objects (``ISSNode``, ``Client``,
the SB implementations) run unmodified over:

* :class:`~repro.net.clock.WallClock` — the :class:`~repro.runtime.api.
  Scheduler` surface over an asyncio event loop and real seconds,
* :class:`~repro.net.transport.TcpTransport` — the :class:`~repro.runtime.
  api.Transport` surface over length-prefixed frames on real TCP sockets,
  with per-peer reconnecting connections,
* :mod:`~repro.net.host` — the per-node child process: one ISS node, its
  :class:`~repro.storage.node_storage.NodeStorage` of fsync'd files in its
  data directory, and the replicated-KV application,
* :class:`~repro.net.deploy.LiveDeployment` — the parent-side launcher
  spawning one process per node via ``multiprocessing``, with ``kill -9``
  and restart-with-recovery support.

Nothing in :mod:`repro.core` or the protocol packages imports this package
(or :mod:`repro.sim`); the boundary is enforced by ``tests/test_layering.py``.
"""

from .clock import WallClock, WallTimer
from .deploy import LiveClusterSpec, LiveDeployment
from .transport import TcpTransport

__all__ = [
    "LiveClusterSpec",
    "LiveDeployment",
    "TcpTransport",
    "WallClock",
    "WallTimer",
]
