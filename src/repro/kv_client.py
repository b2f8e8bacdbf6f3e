"""Replicated-KV command-line client (``python -m repro.kv_client``).

Speaks to a live cluster started by ``python -m repro.kv_server`` (or the
installed ``repro-kv-server`` script).  One invocation performs one
operation::

    repro-kv-client put <key> <value>     # write
    repro-kv-client get <key>             # linearizable read
    repro-kv-client cas <key> <expect> <value>   # compare-and-swap

``--nodes``, ``--protocol`` and ``--seed`` must match the server
launcher's: the client derives the request-signing keys from the
deployment seed and the result quorum (f+1 matching replies) from the
node count.  ``--client-id`` must be below the launcher's
``--max-clients`` or the replicas will reject the requests as unsigned.

Across invocations the client persists its next request timestamp under
``--state-dir`` (default ``~/.repro-kv-client``): replicas track
per-client watermarks over *contiguous* timestamps, so a re-launched
client must resume where it left off rather than restart at zero.

Exit status: 0 when the operation succeeded (for ``get``, when the key
exists; for ``cas``, when the swap applied), 1 otherwise, 2 on timeout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import List, Optional

from .app.kv import KVClient, KVOutcome
from .core.config import ISSConfig, SUPPORTED_PROTOCOLS, PROTOCOL_PBFT
from .crypto.signatures import KeyStore
from .net.clock import WallClock
from .net.deploy import LiveClusterSpec, live_base_port, live_host
from .net.transport import TcpTransport


def _state_path(args: argparse.Namespace) -> str:
    """Per-(cluster, client) session-state file holding the next timestamp."""
    name = f"client{args.client_id}-{args.host}-{args.base_port}.json"
    return os.path.join(args.state_dir, name)


def load_next_timestamp(args: argparse.Namespace) -> int:
    """Read the next request timestamp this client may use (0 on first run)."""
    try:
        with open(_state_path(args)) as handle:
            return int(json.load(handle)["next_timestamp"])
    except (OSError, ValueError, KeyError):
        return 0


def save_next_timestamp(args: argparse.Namespace, next_timestamp: int) -> None:
    """Persist the next timestamp before submitting, so it is never reused.

    Node-side watermarks advance past every delivered timestamp; a future
    invocation reusing one would be silently rejected.  Losing this file
    strands the client id (start a fresh ``--client-id`` in that case), so
    it is replaced atomically (write temp, fsync, ``os.replace`` — as
    :mod:`repro.storage.durable` does): a crash mid-save leaves the
    previous file, never a truncated one.
    """
    os.makedirs(args.state_dir, exist_ok=True)
    path = _state_path(args)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump({"next_timestamp": next_timestamp}, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


async def run_op(args: argparse.Namespace) -> KVOutcome:
    """Connect, perform the one requested operation, disconnect."""
    config = ISSConfig(
        num_nodes=args.nodes,
        protocol=args.protocol,
        random_seed=args.seed,
        client_retry_timeout=0.5,
        client_retry_max_timeout=4.0,
    )
    spec = LiveClusterSpec(
        config=config,
        data_dir="",
        base_port=args.base_port,
        host=args.host,
        client_ids=(args.client_id,),
    )
    first_timestamp = load_next_timestamp(args)
    save_next_timestamp(args, first_timestamp + 1)
    clock = WallClock(seed=args.seed)
    transport = TcpTransport(clock, peers=spec.peer_map())
    await transport.start()
    try:
        key_store = KeyStore(deployment_seed=args.seed)
        client = KVClient(
            args.client_id,
            config,
            clock,
            transport,
            key_store,
            first_timestamp=first_timestamp,
        )
        if args.op == "put":
            return await client.put(args.key, args.value, timeout=args.timeout)
        if args.op == "get":
            return await client.get(args.key, timeout=args.timeout)
        return await client.cas(
            args.key, args.expect, args.value, timeout=args.timeout
        )
    finally:
        await transport.close()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse the operation, run it, print the outcome."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--client-id", type=int, default=0)
    parser.add_argument("--nodes", type=int, default=4, help="replica count")
    parser.add_argument(
        "--protocol", choices=sorted(SUPPORTED_PROTOCOLS), default=PROTOCOL_PBFT
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="deployment seed (must match server)"
    )
    parser.add_argument("--host", default=live_host())
    parser.add_argument("--base-port", type=int, default=live_base_port())
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument(
        "--state-dir",
        default=os.path.expanduser("~/.repro-kv-client"),
        help="where per-client session state (next timestamp) lives",
    )
    sub = parser.add_subparsers(dest="op", required=True)
    put = sub.add_parser("put", help="write key=value")
    put.add_argument("key")
    put.add_argument("value")
    get = sub.add_parser("get", help="linearizable read")
    get.add_argument("key")
    cas = sub.add_parser("cas", help="write value only if key currently holds expect")
    cas.add_argument("key")
    cas.add_argument("expect")
    cas.add_argument("value")
    args = parser.parse_args(argv)

    try:
        outcome = asyncio.run(run_op(args))
    except asyncio.TimeoutError:
        print("timeout", file=sys.stderr)
        return 2
    if args.op == "get":
        if outcome.ok:
            print(outcome.value)
        else:
            print("(not found)", file=sys.stderr)
        return 0 if outcome.ok else 1
    if args.op == "put":
        # A returned put has reached the f+1 acknowledgement quorum.
        print("ok", file=sys.stderr)
        return 0
    print("ok" if outcome.ok else "failed", file=sys.stderr)
    return 0 if outcome.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
