"""Live-deployment driver of the ``live`` gate (``python -m repro.gate live``).

Boots a **real** 4-node PBFT cluster on localhost — one OS process per
replica, TCP between them, an fsync'd WAL per replica under a temp
directory — drives replicated-KV traffic at it, then ``kill -9``'s one
replica mid-run and restarts it over its surviving files.  The gate
checks the deployment-backend claims end to end:

* every submitted KV operation **completes** (ack quorum, and a final
  linearizable read returns the last written value),
* the four durable logs, read straight off disk with no cooperation from
  the processes, are **identical** over every shared position, and
* the restarted victim **catches up**: its contiguous durable prefix
  reaches the surviving nodes' frontier and equals theirs on the shared
  range, proving the WAL-replay → state-transfer pipeline
  works against real files after a real SIGKILL, and
* every replica's durable log, applied up to the shortest contiguous
  durable prefix to a fresh :class:`~repro.app.kv.KVStateMachine`, yields
  the **same store digest** — agreement at the application level, checked
  from the files alone,
* the victim is killed only after it **sealed at least three epochs**, and
  its restarted process ends recovery holding **fewer log entries in memory
  than its durable prefix** — sealed history is served from the file on
  the recovery path too, not only after a live checkpoint.

Wall-clock figures (elapsed seconds, latencies) are reported but **not**
pinned — a live run is scheduled by the OS, not the simulator.  Only the
run's deterministic shape (scenario, counts, booleans) must match the
golden trace in ``tests/data/golden_trace_live.json``.

The port layout honours ``REPRO_LIVE_BASE_PORT`` / ``REPRO_LIVE_HOST``
(deployment settings, not scenario shape) so CI hosts with busy ports can
move the cluster.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from ..app.kv import KVClient, KVStateMachine
from ..core.config import ISSConfig, PROTOCOL_PBFT
from ..crypto.signatures import KeyStore
from ..net.clock import WallClock
from ..net.deploy import (
    LiveClusterSpec,
    LiveDeployment,
    durable_prefix,
    durable_prefix_len,
    durable_requests,
    durable_seals,
    live_base_port,
    live_host,
    prefixes_identical,
)
from ..net.host import RECOVERY_REPORT_FILENAME
from ..net.transport import TcpTransport

#: The pinned live scenario (keep in sync with the golden trace).
SCENARIO = dict(
    protocol=PROTOCOL_PBFT,
    num_nodes=4,
    random_seed=7,
    num_clients=3,
    phase1_ops=15,
    phase2_ops=10,
    phase3_ops=15,
    victim=2,
    epoch_length=16,
)

#: Give up on the whole run after this many wall seconds.
RUN_TIMEOUT = 180.0

#: Victim catch-up poll deadline after the final write phase (wall seconds).
CATCHUP_TIMEOUT = 60.0

#: Epochs the victim must have sealed before it is killed, so the restart
#: replays several sealed runs, not an unsealed log alone.
SEALS_BEFORE_KILL = 3

#: Deadline for reaching :data:`SEALS_BEFORE_KILL` (wall seconds).
SEAL_TIMEOUT = 60.0


def build_spec(data_dir: str) -> LiveClusterSpec:
    """The pinned cluster spec over a fresh ``data_dir``.

    Client retries are on: the live transport is genuinely lossy around a
    kill.  The batch timeout is a quarter second, not the paper's 4 s: an
    idle leader then fills its share of a 16-position epoch with empty
    batches in about a second, so the victim seals its three epochs in
    seconds.
    """
    config = ISSConfig(
        num_nodes=SCENARIO["num_nodes"],
        protocol=SCENARIO["protocol"],
        epoch_length=SCENARIO["epoch_length"],
        random_seed=SCENARIO["random_seed"],
        max_batch_timeout=0.25,
        client_retry_timeout=0.5,
        client_retry_max_timeout=4.0,
    )
    return LiveClusterSpec(
        config=config,
        data_dir=data_dir,
        base_port=live_base_port(),
        host=live_host(),
        client_ids=tuple(range(SCENARIO["num_clients"])),
    )


async def _run_phase(
    clients: List[KVClient], start: int, count: int, latencies: List[float]
) -> int:
    """Submit ``count`` puts round-robin across ``clients``; return completions."""
    outcomes = await asyncio.gather(
        *[
            clients[i % len(clients)].put(f"key{i}", f"value{i}", timeout=RUN_TIMEOUT)
            for i in range(start, start + count)
        ]
    )
    latencies.extend(outcome.latency for outcome in outcomes)
    return len(outcomes)


async def _drive(spec: LiveClusterSpec, deployment: LiveDeployment) -> Dict[str, object]:
    """The client side of the scenario: three write phases around a crash."""
    victim = SCENARIO["victim"]
    clock = WallClock(seed=SCENARIO["random_seed"])
    transport = TcpTransport(clock, peers=spec.peer_map())
    await transport.start()
    key_store = KeyStore(deployment_seed=spec.config.random_seed)
    clients = [
        KVClient(client_id, spec.config, clock, transport, key_store)
        for client_id in spec.client_ids
    ]
    latencies: List[float] = []
    t0 = time.monotonic()

    completed = await _run_phase(clients, 0, SCENARIO["phase1_ops"], latencies)
    deadline = time.monotonic() + SEAL_TIMEOUT
    while (
        seals_at_kill := durable_seals(spec, victim)
    ) < SEALS_BEFORE_KILL and time.monotonic() < deadline:
        await asyncio.sleep(0.1)
    frontier_at_kill = durable_prefix_len(spec, victim)
    deployment.kill(victim)
    completed += await _run_phase(
        clients, SCENARIO["phase1_ops"], SCENARIO["phase2_ops"], latencies
    )
    deployment.restart(victim)
    phase3_start = SCENARIO["phase1_ops"] + SCENARIO["phase2_ops"]
    completed += await _run_phase(
        clients, phase3_start, SCENARIO["phase3_ops"], latencies
    )
    submitted = phase3_start + SCENARIO["phase3_ops"]

    last_key = f"key{submitted - 1}"
    read = await clients[0].get(last_key, timeout=RUN_TIMEOUT)
    read_ok = bool(read.ok and read.value == f"value{submitted - 1}")

    # Wait for the restarted victim's durable prefix to reach the others'
    # frontier (state transfer fills what was ordered while it was down).
    caught_up = False
    deadline = time.monotonic() + CATCHUP_TIMEOUT
    while time.monotonic() < deadline:
        lens = [
            durable_prefix_len(spec, node) for node in range(spec.config.num_nodes)
        ]
        others = [lens[node] for node in range(spec.config.num_nodes) if node != victim]
        if (
            lens[victim] > frontier_at_kill
            and lens[victim] + spec.config.epoch_length >= min(others)
        ):
            caught_up = True
            break
        await asyncio.sleep(0.5)

    await transport.close()
    latencies.sort()
    return {
        "submitted": submitted,
        "completed": completed,
        "read_ok": read_ok,
        "victim_caught_up": caught_up,
        "victim_seals_at_kill": seals_at_kill,
        "wall_seconds": round(time.monotonic() - t0, 3),
        "latency_p50": round(latencies[len(latencies) // 2], 4) if latencies else 0.0,
        "latency_max": round(latencies[-1], 4) if latencies else 0.0,
    }


def kv_stores(spec: LiveClusterSpec) -> List[KVStateMachine]:
    """Each replica's KV store, rebuilt from its durable log alone: the
    requests of the shortest contiguous durable prefix, applied in order."""
    logs = [durable_requests(spec, node) for node in range(spec.config.num_nodes)]
    shared = min(len(log) for log in logs)
    stores = [KVStateMachine() for _ in logs]
    for store, log in zip(stores, logs):
        for request in log[:shared]:
            store.apply(request.payload)
    return stores


def run_live() -> Dict[str, object]:
    """4 PBFT processes on localhost, 40 KV puts in three phases around a
    ``kill -9`` + restart of node 2; the figures the ``live`` gate checks."""
    with tempfile.TemporaryDirectory(prefix="repro-live-smoke-") as data_dir:
        spec = build_spec(data_dir)
        deployment = LiveDeployment(spec)
        deployment.start(timeout=30.0)
        try:
            driven = asyncio.run(
                asyncio.wait_for(_drive(spec, deployment), timeout=RUN_TIMEOUT)
            )
        finally:
            deployment.stop()
        prefixes = [
            durable_prefix(spec, node) for node in range(spec.config.num_nodes)
        ]
        victim = SCENARIO["victim"]
        stores = kv_stores(spec)
        recovery = json.loads(
            Path(spec.node_dir(victim), RECOVERY_REPORT_FILENAME).read_text()
        )
        return {
            "scenario": dict(SCENARIO),
            "submitted": driven["submitted"],
            "completed": driven["completed"],
            "completed_fraction": round(driven["completed"] / driven["submitted"], 4),
            "all_completed": driven["completed"] == driven["submitted"],
            "read_ok": driven["read_ok"],
            "prefix_identical": prefixes_identical(prefixes),
            "victim_caught_up": driven["victim_caught_up"],
            "victim_prefix_matches_peers": bool(prefixes[victim])
            and all(
                prefixes_identical([prefixes[victim], peer]) for peer in prefixes
            ),
            "victim_seals_at_kill": driven["victim_seals_at_kill"],
            "victim_durable_at_recovery": int(
                recovery["snapshot_entries"] + recovery["wal_entries_replayed"]
            ),
            "victim_log_resident_after_recovery": recovery["log_resident"],
            "restarts_performed": deployment.restarts_performed,
            "min_prefix_requests": min(len(prefix) for prefix in prefixes),
            "kv_digests_equal": len({store.digest() for store in stores}) == 1,
            "kv_applied_shared": stores[0].applied,
            "wall_seconds": driven["wall_seconds"],
            "latency_p50": driven["latency_p50"],
            "latency_max": driven["latency_max"],
        }


#: The live-backend claims (ordered ``(predicate, message)`` pairs).
CLAIMS = (
    (
        lambda f: f["all_completed"],
        "LIVE REGRESSION: only {completed}/{submitted} KV operations completed",
    ),
    (
        lambda f: f["read_ok"],
        "LIVE REGRESSION: the final read did not return the last written value",
    ),
    (
        lambda f: f["prefix_identical"],
        "LIVE SAFETY VIOLATION: the durable logs disagree on a shared position",
    ),
    (
        lambda f: f["victim_caught_up"],
        "LIVE RECOVERY REGRESSION: the killed-and-restarted node never "
        "reached the surviving nodes' durable frontier",
    ),
    (
        lambda f: f["victim_prefix_matches_peers"],
        "LIVE SAFETY VIOLATION: the restarted node's durable prefix differs "
        "from a peer's on their shared range",
    ),
    (
        lambda f: f["kv_digests_equal"],
        "LIVE SAFETY VIOLATION: the replicas' KV stores, rebuilt from their "
        "durable logs over the shared prefix, have different digests",
    ),
    (
        lambda f: f["victim_seals_at_kill"] >= SEALS_BEFORE_KILL,
        "LIVE SCENARIO TOO SHORT: the victim had sealed only "
        "{victim_seals_at_kill} epochs when it was killed",
    ),
    (
        lambda f: f["victim_log_resident_after_recovery"]
        < f["victim_durable_at_recovery"],
        "LIVE EVICTION REGRESSION: the restarted node ended recovery with "
        "{victim_log_resident_after_recovery} log entries in memory for "
        "{victim_durable_at_recovery} durable ones",
    ),
)
