"""The per-node child process of a live deployment.

One process per replica: an asyncio loop hosting one
:class:`~repro.core.iss.ISSNode` (the identical protocol object the
simulator runs), wired to a :class:`~repro.net.clock.WallClock`, a
:class:`~repro.net.transport.TcpTransport`, a
:class:`~repro.storage.node_storage.NodeStorage` opened on its data
directory (:class:`~repro.storage.disk.OsDisk`), and the replicated-KV
application (:class:`~repro.app.kv.KVApp`) as its delivery listener — built
from the class alone, the value a simulated ``Deployment(app=KVApp)`` takes.
The node sends the listener's replies; recovery replays the restored prefix
through it and drops them.

Startup distinguishes first boot from restart by looking at the data
directory: prior state routes through the same
:class:`~repro.storage.recovery.RecoveryManager` pipeline the simulator's
restart path uses — WAL replay (over records that genuinely survived a
``kill -9`` via fsync), certificate restoration, epoch fast-forward,
eviction of the sealed history from memory (the outcome is left in
``recovery.json`` for whoever audits the directory) — then the node
resumes at the first incomplete epoch in aggressive-catchup mode and
:func:`~repro.storage.recovery.watch_catchup` ends catchup once the node
completes an epoch beyond its recovered frontier (the same watcher as the
harness's caught-up poll, with the only "done" test a child process can
run for lack of a peers' frontier view).

The process runs until SIGTERM (clean drain) or SIGKILL (the crash the
recovery path exists for).
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path

from ..app.kv import KVApp
from ..core.iss import ISSNode
from ..crypto.signatures import KeyStore
from ..storage.disk import OsDisk
from ..storage.node_storage import NodeStorage
from ..storage.recovery import boot_from_storage, watch_catchup
from .clock import WallClock
from .transport import TcpTransport

#: Tick of the post-restart catchup-end watcher (wall seconds).
CATCHUP_POLL_INTERVAL = 0.5

#: What a restarted replica leaves in its data directory about its recovery:
#: :meth:`~repro.storage.recovery.RecoveryInfo.as_dict` plus
#: ``log_resident`` (log entries still in memory once recovery is done).
RECOVERY_REPORT_FILENAME = "recovery.json"


def node_main(spec, node_id: int) -> None:
    """Child-process entry point (the ``multiprocessing`` spawn target)."""
    asyncio.run(run_node(spec, node_id))


async def run_node(spec, node_id: int) -> None:
    """Build and run one replica until the process is told to stop."""
    clock = WallClock(seed=spec.config.random_seed * 100_003 + node_id)
    transport = TcpTransport(
        clock,
        peers=spec.peer_map(exclude=node_id),
        listen=spec.address(node_id),
        batch_flush_interval=spec.batch_flush_interval,
    )
    await transport.start()
    storage = NodeStorage(node_id, OsDisk(spec.node_dir(node_id)))
    key_store = KeyStore(deployment_seed=spec.config.random_seed)
    app = KVApp()
    node = ISSNode(
        node_id=node_id,
        config=spec.config,
        sim=clock,
        network=transport,
        key_store=key_store,
        client_ids=list(spec.client_ids),
        on_deliver=app.on_deliver,
        storage=storage,
        # No admin identity: a live cluster keeps its genesis membership,
        # whatever a KV client's payload looks like.
        admin_client=None,
    )
    if storage.has_state():
        # Restart: recover from the fsync'd files, then chase the frontier.
        info = boot_from_storage(node, storage, now=clock.now)
        report = dict(info.as_dict(), log_resident=node.log.resident_count())
        Path(spec.node_dir(node_id), RECOVERY_REPORT_FILENAME).write_text(
            json.dumps(report)
        )
        # Completing an epoch at or beyond the resume point means state
        # transfer filled everything ordered while the process was down and
        # live delivery has taken over.
        watch_catchup(
            clock,
            CATCHUP_POLL_INTERVAL,
            still_current=lambda: not node.crashed,
            caught_up=lambda: node.epochs_completed > info.resume_epoch,
            on_caught_up=node.end_recovery_catchup,
        )
    else:
        node.start()

    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stopping.set)
    await stopping.wait()
    await transport.close()
    storage.close()
