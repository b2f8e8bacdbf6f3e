#!/usr/bin/env python3
"""A replicated key-value store on top of ISS.

The paper positions ISS as a classic SMR service "applicable to any
replicated service, such as resilient databases".  This example runs
exactly that in the simulator: every replica feeds the totally ordered
request stream into :class:`repro.app.kv.KVApp` — the application a live
replica process runs — and the example checks that all replicas end with
the same store digest although requests arrive at different nodes in
different orders.

Run with:  python examples/replicated_kv_store.py
"""

from itertools import count

from repro import Deployment, ISSConfig, NetworkConfig, WorkloadConfig
from repro.app.kv import KVApp, encode_cas, encode_get, encode_put

#: Keys the operations spread over, and the gap between two rounds of
#: submissions (one operation per client per round; virtual seconds).
KEYS = 20
INTERVAL = 0.02


def kv_operation(n: int) -> bytes:
    """The ``n``-th operation: mostly puts, some reads and compare-and-swaps."""
    key = f"key-{n % KEYS}"
    if n % 7 == 0:
        return encode_get(key)
    if n % 5 == 0:
        return encode_cas(key, f"v{n - KEYS}", f"v{n}")
    return encode_put(key, f"v{n}")


def main() -> None:
    config = ISSConfig(
        num_nodes=4,
        protocol="pbft",
        epoch_length=16,
        max_batch_size=32,
        batch_rate=8.0,
        max_batch_timeout=0.5,
        view_change_timeout=5.0,
        epoch_change_timeout=5.0,
    )
    # The generator's own requests (empty payloads, one per second) are no
    # KV operations: every replica counts them as skipped.
    workload = WorkloadConfig(num_clients=3, total_rate=1.0, duration=8.0, payload_size=0)
    deployment = Deployment(
        config, network_config=NetworkConfig(num_datacenters=4), workload=workload, app=KVApp
    )
    sim = deployment.sim
    operations = count()

    def submit_round() -> None:
        for client in deployment.clients:
            if client.outstanding_within_watermarks():
                client.submit(kv_operation(next(operations)))
        if sim.now + INTERVAL < workload.duration:
            sim.schedule_callback(INTERVAL, submit_round)

    sim.schedule_callback(INTERVAL, submit_round)
    result = deployment.run()

    print("=== Replicated key-value store on ISS-PBFT ===")
    print(f"operations ordered : {result.report.completed}")
    print(f"throughput         : {result.report.throughput:.1f} op/s")
    print(f"mean latency       : {result.report.latency.mean * 1000:.1f} ms")

    print("\nreplica state:")
    for node_id, app in sorted(deployment.apps.items()):
        machine = app.machine
        print(
            f"  node {node_id}: applied={machine.applied:5d} skipped={machine.skipped:3d} "
            f"keys={len(machine.store):3d} digest={machine.digest()[:16]}"
        )

    if len({app.machine.digest() for app in deployment.apps.values()}) == 1:
        print("\nAll replicas converged to the same key-value state — SMR holds.")
    else:
        raise SystemExit("Replica state divergence detected — this should never happen.")


if __name__ == "__main__":
    main()
