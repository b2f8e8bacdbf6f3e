"""Parent-side launcher for a live localhost cluster.

:class:`LiveClusterSpec` is the picklable description shipped to every
child process — the :class:`~repro.core.config.ISSConfig`, the data
directory, the port layout, the known client ids and the storage/batching
knobs.  :class:`LiveDeployment` turns it into running replicas: one
``multiprocessing`` (spawn) process per node executing
:func:`repro.net.host.node_main`, with ``kill()`` delivering a real
SIGKILL and ``restart()`` booting a fresh process over the same data
directory — which is precisely what routes the restart through the
on-disk WAL/snapshot recovery pipeline.

The deployment also knows how to *audit* a cluster from its files:
:func:`durable_prefix` reconstructs a node's contiguous delivered request
sequence from its WAL and sealed archive alone (no RPC, no cooperation from
the process), and :func:`prefixes_identical` checks the SMR safety claim over
the shared positions.  The ``live`` gate and the docs examples rest on
these.

Environment knobs (see PERF.md): ``REPRO_LIVE_BASE_PORT`` (first node
port, default 7400), ``REPRO_LIVE_HOST`` (bind/connect address, default
127.0.0.1) and ``REPRO_FSYNC`` (storage sync policy, default ``always``).
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.config import ISSConfig
from ..core.types import is_nil
from ..storage.durable import (
    FSYNC_ALWAYS,
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    iter_frames,
)
from ..storage.wal import RECORD_CHECKPOINT, RECORD_COMMIT

#: Defaults for the env-overridable port/host layout.
DEFAULT_BASE_PORT = 7400
DEFAULT_HOST = "127.0.0.1"


def live_base_port() -> int:
    """First node port (env var ``REPRO_LIVE_BASE_PORT``); node *i* adds *i*."""
    try:
        port = int(os.environ.get("REPRO_LIVE_BASE_PORT", str(DEFAULT_BASE_PORT)))
    except ValueError:
        return DEFAULT_BASE_PORT
    return port if 1 <= port <= 65535 else DEFAULT_BASE_PORT


def live_host() -> str:
    """Bind/connect address of the cluster (env var ``REPRO_LIVE_HOST``)."""
    return os.environ.get("REPRO_LIVE_HOST", DEFAULT_HOST).strip() or DEFAULT_HOST


@dataclass(frozen=True)
class LiveClusterSpec:
    """Everything a child process needs to boot its replica (picklable)."""

    config: ISSConfig
    data_dir: str
    base_port: int
    host: str = DEFAULT_HOST
    #: Client identities known to the validators/watermark trackers.
    client_ids: Tuple[int, ...] = field(default_factory=tuple)
    #: Wire-batching flush tick (0 = off), as in ``NetworkConfig``.
    batch_flush_interval: float = 0.0
    #: Storage fsync policy (see :mod:`repro.storage.durable`).
    fsync: str = FSYNC_ALWAYS

    def port(self, node_id: int) -> int:
        """TCP port node ``node_id`` listens on."""
        return self.base_port + node_id

    def address(self, node_id: int) -> Tuple[str, int]:
        """``(host, port)`` of one node's server socket."""
        return (self.host, self.port(node_id))

    def peer_map(self, exclude: Optional[int] = None) -> Dict[int, Tuple[str, int]]:
        """Endpoint → address map of every replica (minus ``exclude``)."""
        return {
            node_id: self.address(node_id)
            for node_id in range(self.config.num_nodes)
            if node_id != exclude
        }

    def node_dir(self, node_id: int) -> str:
        """One node's durable-storage directory under ``data_dir``."""
        return os.path.join(self.data_dir, f"node{node_id}")


class LiveDeployment:
    """A running localhost cluster: one OS process per replica."""

    def __init__(self, spec: LiveClusterSpec):
        self.spec = spec
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        #: Node restarts performed over the deployment's lifetime.
        self.restarts_performed = 0

    # -------------------------------------------------------------- lifecycle
    def start(self, timeout: float = 30.0) -> None:
        """Spawn every replica and wait until all of them accept connections."""
        for node_id in range(self.spec.config.num_nodes):
            self._spawn(node_id)
        self.wait_ready(timeout=timeout)

    def _spawn(self, node_id: int) -> None:
        from .host import node_main

        process = self._ctx.Process(
            target=node_main, args=(self.spec, node_id), daemon=True
        )
        process.start()
        self._procs[node_id] = process

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every live replica's server socket accepts."""
        deadline = time.monotonic() + timeout
        for node_id, process in self._procs.items():
            if not process.is_alive():
                continue
            self._wait_port(node_id, deadline)

    def _wait_port(self, node_id: int, deadline: float) -> None:
        host, port = self.spec.address(node_id)
        while True:
            try:
                with socket.create_connection((host, port), timeout=0.25):
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"node {node_id} did not start listening on {host}:{port}"
                    )
                time.sleep(0.05)

    def alive(self, node_id: int) -> bool:
        """Whether node ``node_id``'s process is currently running."""
        process = self._procs.get(node_id)
        return process is not None and process.is_alive()

    def kill(self, node_id: int) -> None:
        """SIGKILL one replica — no shutdown hooks, no final flush."""
        process = self._procs[node_id]
        process.kill()
        process.join()

    def restart(self, node_id: int, timeout: float = 30.0) -> None:
        """Boot a fresh process for ``node_id`` over its existing data dir."""
        old = self._procs.get(node_id)
        if old is not None and old.is_alive():
            raise RuntimeError(f"node {node_id} is still running; kill it first")
        self._spawn(node_id)
        self._wait_port(node_id, time.monotonic() + timeout)
        self.restarts_performed += 1

    def stop(self) -> None:
        """Terminate every replica (SIGTERM, escalating to SIGKILL)."""
        for process in self._procs.values():
            if process.is_alive():
                process.terminate()
        for process in self._procs.values():
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join()
        self._procs.clear()

    def __enter__(self) -> "LiveDeployment":
        """Context-manager entry: starts the cluster."""
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: always stops the cluster."""
        self.stop()


# ------------------------------------------------------------- disk auditing
def durable_entries(spec: LiveClusterSpec, node_id: int) -> Dict[int, object]:
    """Read one node's durable log entries (``sn -> entry``) from its files.

    Pure file reads — safe on a dead node's directory and on a running
    node's (the frame reader stops at a concurrent append's torn tail).
    The WAL is read *before* the sealed archive: a record leaves the WAL
    only after the archive holding it was fsync'd, and the archive only
    grows, so this order cannot miss an entry to a compaction running
    between the two reads — the opposite order can.
    """
    directory = Path(spec.node_dir(node_id))
    entries: Dict[int, object] = {}
    for filename in (WAL_FILENAME, SNAPSHOT_FILENAME):
        for record, _end in iter_frames(directory / filename):
            if record.kind == RECORD_COMMIT:
                entries[record.sn] = record.entry
    return entries


def durable_seals(spec: LiveClusterSpec, node_id: int) -> int:
    """Seal markers in one node's archive: stable checkpoints it compacted."""
    archive = Path(spec.node_dir(node_id)) / SNAPSHOT_FILENAME
    return sum(
        1 for record, _end in iter_frames(archive) if record.kind == RECORD_CHECKPOINT
    )


def durable_prefix(spec: LiveClusterSpec, node_id: int) -> List[Tuple[int, int]]:
    """One node's contiguous delivered request sequence, from disk alone.

    Walks sequence numbers from 0 while entries are present, flattening
    each committed batch into ``(client, timestamp)`` request-id pairs (NIL
    entries contribute nothing but extend the prefix).  This is the
    delivered order an application replaying the durable log would see.
    """
    entries = durable_entries(spec, node_id)
    prefix: List[Tuple[int, int]] = []
    sn = 0
    while sn in entries:
        entry = entries[sn]
        if not is_nil(entry):
            for request in entry.requests:
                prefix.append((request.rid.client, request.rid.timestamp))
        sn += 1
    return prefix


def durable_prefix_len(spec: LiveClusterSpec, node_id: int) -> int:
    """Length in *sequence numbers* of one node's contiguous durable prefix."""
    entries = durable_entries(spec, node_id)
    sn = 0
    while sn in entries:
        sn += 1
    return sn


def prefixes_identical(prefixes: List[List[Tuple[int, int]]]) -> bool:
    """SMR safety over the durable logs: agreement on every shared position."""
    # Imported on use: the harness package pulls the simulator in, which the
    # per-node process (it imports this package too) must stay free of.
    from ..harness.invariants import traces_agree

    return traces_agree(prefixes)
