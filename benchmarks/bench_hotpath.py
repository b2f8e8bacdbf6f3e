#!/usr/bin/env python
"""Microbenchmarks for the simulation fast paths.

Times the individual hot paths that dominate large runs (see PERF.md):
the simulator's allocation-free event dispatch, Timer-based dispatch and
cancellation compaction, ``Network.send`` (direct and through the
wire-batching layer), ``Network.multicast`` at a 31-way fan-out, one PBFT
vote into a 32-node instance, request-id hashing, memoized signature
verification, and the bucket-pool request cycle.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--json out.json]

Each benchmark reports operations per second; higher is better.  These are
microbenchmarks for diagnosing *which* layer regressed — the end-to-end
number that gates CI lives in ``benchmarks/run_perf_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.buckets import BucketPool  # noqa: E402
from repro.core.config import NetworkConfig  # noqa: E402
from repro.core.types import Request, RequestId  # noqa: E402
from repro.core.validation import request_signing_payload, sign_request  # noqa: E402
from repro.crypto.signatures import KeyStore  # noqa: E402
from repro.metrics.report import format_table, print_banner  # noqa: E402
from repro.sim.latency import LatencyModel  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402


def _timed(fn, ops: int) -> float:
    """Run ``fn`` once and return operations per second."""
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return ops / elapsed if elapsed > 0 else float("inf")


def bench_sim_fast_dispatch(n: int = 200_000) -> float:
    """schedule_callback + run: the per-message delivery path."""
    sim = Simulator(seed=1)

    def run():
        noop = lambda: None  # noqa: E731
        for i in range(n):
            sim.schedule_callback(i * 1e-6, noop)
        sim.run()

    return _timed(run, n)


def bench_sim_timer_dispatch(n: int = 200_000) -> float:
    """schedule (Timer handle) + run: the cancellable-timeout path."""
    sim = Simulator(seed=1)

    def run():
        noop = lambda: None  # noqa: E731
        for i in range(n):
            sim.schedule(i * 1e-6, noop)
        sim.run()

    return _timed(run, n)


def bench_timer_cancel(n: int = 200_000) -> float:
    """Schedule timers and cancel 90% of them (exercises lazy compaction)."""
    sim = Simulator(seed=1)

    def run():
        noop = lambda: None  # noqa: E731
        timers = [sim.schedule(i * 1e-6, noop) for i in range(n)]
        for index, timer in enumerate(timers):
            if index % 10:
                timer.cancel()
        sim.run()
        assert sim.pending_events() == 0

    return _timed(run, n)


def bench_network_send(n: int = 100_000) -> float:
    """Point-to-point sends through the full NIC/latency model."""
    sim = Simulator(seed=1)
    config = NetworkConfig()
    network = Network(sim, config, LatencyModel(config, 4))
    for node in range(4):
        network.register(node, lambda src, msg: None)

    def run():
        for i in range(n):
            network.send(i & 3, (i + 1) & 3, "ping")
        sim.run()

    return _timed(run, n)


def bench_network_send_batched(n: int = 100_000) -> float:
    """Batchable sends through the wire-batching layer (enqueue + flush).

    Sends PBFT-style votes across a 4-node network with a 1 ms flush tick:
    each send takes the batcher detour, and every (src, dst, tick) bucket
    leaves the NIC as a single coalesced frame.
    """
    from repro.pbft.messages import Prepare

    sim = Simulator(seed=1)
    config = NetworkConfig(batch_flush_interval=0.001)
    network = Network(sim, config, LatencyModel(config, 4))
    for node in range(4):
        network.register(node, lambda src, msg: None)
    votes = [Prepare(view=0, sn=i & 31, digest=b"d" * 32) for i in range(64)]

    def run():
        send = network.send
        for i in range(n):
            # Spread sends over virtual time so flush ticks keep firing.
            if i % 256 == 0:
                sim.run(until=sim.now + 0.001)
            send(i & 3, (i + 1) & 3, votes[i & 63])
        sim.run()

    return _timed(run, n)


def _bench_network_multicast(flush_interval: float, rounds: int) -> float:
    """31-way multicasts of PBFT votes on a 32-node network, per destination.

    The n² vote path's send half: one envelope, sized once, fanned out over
    31 links.  Compare with the per-message figures of ``network send`` /
    ``network send batched`` — the gap is what one multicast saves over 31
    independent sends.
    """
    from repro.core.messages import InstanceMessage
    from repro.pbft.messages import Prepare

    nodes = 32
    sim = Simulator(seed=1)
    config = NetworkConfig(batch_flush_interval=flush_interval)
    network = Network(sim, config, LatencyModel(config, nodes))
    for node in range(nodes):
        network.register(node, lambda src, msg: None)
    votes = [
        InstanceMessage((0, i & 31), Prepare(view=0, sn=i & 31, digest=b"d" * 32))
        for i in range(64)
    ]
    peers = [[dst for dst in range(nodes) if dst != src] for src in range(nodes)]

    def run():
        multicast = network.multicast
        for i in range(rounds):
            # Spread sends over virtual time so flush ticks keep firing;
            # 256 multicasts per tick put 8 votes on every link's frame.
            if i % 256 == 0:
                sim.run(until=sim.now + 0.001)
            multicast(i & 31, peers[i & 31], votes[i & 63])
        sim.run()

    return _timed(run, rounds * (nodes - 1))


def bench_network_multicast(rounds: int = 3_000) -> float:
    """Unbatched: every destination pays the NIC/latency path."""
    return _bench_network_multicast(0.0, rounds)


def bench_network_multicast_batched(rounds: int = 3_000) -> float:
    """Batched (1 ms tick): every destination is one batcher enqueue."""
    return _bench_network_multicast(0.001, rounds)


def bench_pbft_vote(slots: int = 2_000) -> float:
    """One PREPARE into a 32-node ``PbftSB``: the receive half of the n² path.

    Every slot has an accepted PRE-PREPARE; the 31 peers' matching PREPAREs
    then arrive one by one (the 22nd completes the quorum and triggers the
    COMMIT multicast, which goes to a no-op).
    """
    from repro.core.config import ISSConfig
    from repro.core.sb import SBContext
    from repro.core.types import Batch, SegmentDescriptor
    from repro.pbft.messages import Prepare, PrePrepare
    from repro.pbft.pbft import PbftSB

    nodes = 32
    sim = Simulator(seed=1)
    context = SBContext(
        node_id=1,
        config=ISSConfig(num_nodes=nodes, epoch_length=slots, batch_rate=None),
        segment=SegmentDescriptor(
            epoch=0, leader=0, seq_nrs=tuple(range(slots)), buckets=(0,)
        ),
        all_nodes=range(nodes),
        send_fn=lambda dst, msg: None,
        local_fn=lambda msg: None,
        multicast_fn=lambda dsts, msg: None,
        schedule_fn=sim.schedule,
        now_fn=lambda: sim.now,
        cut_batch_fn=lambda sn: Batch.of(()),
        validate_batch_fn=lambda batch: True,
        deliver_fn=lambda sn, value: None,
        pending_fn=lambda: 0,
    )
    instance = PbftSB(context)
    batch = Batch.of(())
    digest = batch.digest()
    for sn in range(slots):
        instance.handle_message(0, PrePrepare(view=0, sn=sn, value=batch, digest=digest))
    votes = [Prepare(view=0, sn=sn, digest=digest) for sn in range(slots)]
    voters = [node for node in range(nodes) if node != 1]

    def run():
        handle = instance.handle_message
        for voter in voters:
            for vote in votes:
                handle(voter, vote)

    return _timed(run, slots * len(voters))


def bench_request_hashing(n: int = 500_000) -> float:
    """Set membership over request ids (cached hash fast path)."""
    rids = [RequestId(client=i & 15, timestamp=i) for i in range(2000)]
    seen = set(rids)

    def run():
        for i in range(n):
            _ = rids[i % 2000] in seen

    return _timed(run, n)


def bench_verify_cached(n: int = 20_000) -> float:
    """Re-verification of an already-verified request (memoized path)."""
    store = KeyStore(deployment_seed=3)
    request = sign_request(
        store, Request(rid=RequestId(client=1, timestamp=1), payload=b"x" * 500)
    )
    digest = request.digest()
    payload = request_signing_payload(request)
    store.verify_digest(1, digest, request.signature, lambda: payload)  # warm

    def run():
        for _ in range(n):
            store.verify_digest(1, digest, request.signature, lambda: payload)

    return _timed(run, n)


def bench_verify_cold(n: int = 5_000) -> float:
    """First-time verification (one HMAC per unique request)."""
    store = KeyStore(deployment_seed=3)
    requests = [
        sign_request(store, Request(rid=RequestId(client=1, timestamp=t), payload=b"x" * 500))
        for t in range(n)
    ]
    cold_store = KeyStore(deployment_seed=3)

    def run():
        for request in requests:
            cold_store.verify_digest(
                request.rid.client,
                request.digest(),
                request.signature,
                lambda r=request: request_signing_payload(r),
            )

    return _timed(run, n)


def bench_bucket_cycle(n: int = 50_000) -> float:
    """add_request → cut_batch → mark_delivered over a realistic pool."""
    pool = BucketPool(num_buckets=128)
    requests = [
        Request(rid=RequestId(client=i & 15, timestamp=i >> 4), payload=b"x" * 32)
        for i in range(n)
    ]
    buckets = list(range(128))

    def run():
        for request in requests:
            pool.add_request(request)
        while True:
            batch = pool.cut_batch(buckets, 2048)
            if not batch:
                break
            for request in batch:
                pool.mark_delivered(request)

    return _timed(run, n)


BENCHMARKS = [
    ("sim fast dispatch", bench_sim_fast_dispatch, "schedule_callback + run, per event"),
    ("sim timer dispatch", bench_sim_timer_dispatch, "schedule (Timer) + run, per event"),
    ("timer cancel 90%", bench_timer_cancel, "schedule + cancel + compaction, per timer"),
    ("network send", bench_network_send, "full NIC/latency send, per message"),
    ("network send batched", bench_network_send_batched, "batched send incl. flush, per vote"),
    ("network multicast", bench_network_multicast, "31-way vote multicast, per destination"),
    ("net multicast batched", bench_network_multicast_batched, "31-way batched multicast incl. flush, per destination"),
    ("pbft vote", bench_pbft_vote, "one PREPARE into a 32-node PbftSB, per vote"),
    ("request-id set probe", bench_request_hashing, "cached-hash set membership, per probe"),
    ("verify (memoized)", bench_verify_cached, "re-verification dict hit, per verify"),
    ("verify (cold)", bench_verify_cold, "first verification incl. HMAC, per verify"),
    ("bucket cycle", bench_bucket_cycle, "add + cut + mark_delivered, per request"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hot-path microbenchmarks")
    parser.add_argument("--json", default=None, help="also write results to this JSON file")
    args = parser.parse_args(argv)

    print_banner("Hot-path microbenchmarks (ops/s, higher is better)")
    rows = []
    results = {}
    for name, fn, what in BENCHMARKS:
        ops_per_sec = fn()
        results[name] = round(ops_per_sec, 1)
        rows.append([name, f"{ops_per_sec:,.0f}", what])
        print(f"  {name:<22} {ops_per_sec:>12,.0f} ops/s")
    print()
    print(format_table(["benchmark", "ops/s", "measures"], rows))

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
