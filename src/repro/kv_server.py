"""Replicated-KV cluster launcher (``python -m repro.kv_server``).

Boots a live localhost cluster — one OS process per replica, TCP between
them, an fsync'd WAL per replica under ``--data-dir`` — serving the
replicated key-value application, and runs until Ctrl-C (SIGINT) tears
every replica down cleanly.  Data directories persist across launches:
re-running over the same ``--data-dir`` routes every node through the
WAL recovery pipeline, so a cluster can be stopped and resumed.

The client side is ``python -m repro.kv_client`` (or the installed
``repro-kv-client`` script); its ``--nodes``/``--protocol``/``--seed``
must match this launcher's so the signature keys and quorum sizes line
up.

Example::

    PYTHONPATH=src python -m repro.kv_server --nodes 4 --data-dir /tmp/kv &
    PYTHONPATH=src python -m repro.kv_client put greeting hello
    PYTHONPATH=src python -m repro.kv_client get greeting
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .core.config import ISSConfig, SUPPORTED_PROTOCOLS, PROTOCOL_PBFT
from .net.deploy import (
    LiveClusterSpec,
    LiveDeployment,
    live_base_port,
    live_host,
)

#: Client ids the replicas accept by default (``--max-clients``).
DEFAULT_MAX_CLIENTS = 8


def build_spec(args: argparse.Namespace) -> LiveClusterSpec:
    """Translate parsed CLI arguments into the cluster spec."""
    config = ISSConfig(
        num_nodes=args.nodes,
        protocol=args.protocol,
        random_seed=args.seed,
        client_retry_timeout=0.5,
        client_retry_max_timeout=4.0,
    )
    return LiveClusterSpec(
        config=config,
        data_dir=args.data_dir,
        base_port=args.base_port,
        host=args.host,
        client_ids=tuple(range(args.max_clients)),
        batch_flush_interval=args.flush_interval,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: boot the cluster, run until interrupted."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=4, help="replica count")
    parser.add_argument(
        "--protocol", choices=sorted(SUPPORTED_PROTOCOLS), default=PROTOCOL_PBFT
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="deployment seed (keys, protocol rng)"
    )
    parser.add_argument(
        "--data-dir", default="./kv-data", help="durable storage root"
    )
    parser.add_argument(
        "--base-port",
        type=int,
        default=live_base_port(),
        help="node 0's TCP port; node i listens on base+i",
    )
    parser.add_argument("--host", default=live_host(), help="bind address")
    parser.add_argument(
        "--max-clients",
        type=int,
        default=DEFAULT_MAX_CLIENTS,
        help="client ids 0..N-1 the replicas accept",
    )
    parser.add_argument(
        "--flush-interval",
        type=float,
        default=0.0,
        help="wire-batching flush tick in seconds (0 = off)",
    )
    args = parser.parse_args(argv)

    spec = build_spec(args)
    deployment = LiveDeployment(spec)
    print(
        f"starting {args.nodes} {args.protocol} nodes on "
        f"{args.host}:{args.base_port}-{args.base_port + args.nodes - 1}, "
        f"data under {args.data_dir} ..."
    )
    deployment.start()
    print("cluster ready; Ctrl-C to stop")
    try:
        while True:
            time.sleep(1.0)
            for node_id in range(args.nodes):
                if not deployment.alive(node_id):
                    print(f"node {node_id} exited unexpectedly", file=sys.stderr)
                    deployment.stop()
                    return 1
    except KeyboardInterrupt:
        print("stopping ...")
    finally:
        deployment.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
