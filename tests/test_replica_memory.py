"""Memory is bounded by windows and in-flight work, not by uptime.

Client watermarks bound per-client state (Sec. 3.7) and a stable checkpoint
garbage-collects everything below it (Sec. 3.4).  These tests pin the
per-request and per-epoch state that has to go with them: the signature
memo entry of a delivered request, the segment descriptors of finished
epochs, the checkpoint votes of stable epochs, the PBFT voter sets and
decided values of committed slots, the decoded batches of WAL commits and
every log entry already delivered (storage reads it back from disk).

Within one epoch, nothing a replica or the simulator holds per request may
outlive the request either: the workload generator's arrival timers, the
metrics collector's delivery-node sets, a replica's proposal index and its
bucket heaps are each bounded by in-flight work, however long a run stays
in its first epoch.
"""

import pytest

from repro.core.buckets import HEAP_SLACK
from repro.core.config import ISSConfig, WorkloadConfig
from repro.core.types import Batch, is_nil
from repro.harness.runner import Deployment
from repro.pbft.pbft import PbftSB
from repro.runtime.faults import CrashSpec, RestartSpec
from repro.storage.wal import RECORD_COMMIT
from tests.test_iss_node_unit import NodeHarness

EPOCH_LENGTH = 8
CHECK_EPOCHS = (6, 12)


def _config(random_seed):
    """Four PBFT replicas, short epochs: twelve of them in a few seconds."""
    return ISSConfig(
        num_nodes=4,
        epoch_length=EPOCH_LENGTH,
        max_batch_timeout=0.25,
        random_seed=random_seed,
    )


def _memo_key(request):
    return (request.rid.client, request.digest(), request.signature)


def _delivered_requests(node):
    for _sn, entry in node.log.entries_in(range(node.log.first_undelivered)):
        if isinstance(entry, Batch):
            yield from entry.requests


def _memory_violations(node):
    """Everything ``node`` still holds that nothing will ask for again."""
    problems = []
    memo = node.key_store._verified
    leaked = sum(1 for request in _delivered_requests(node) if _memo_key(request) in memo)
    if leaked:
        problems.append(f"{leaked} delivered requests still memoized")
    if len(node.manager._segments) > 2:
        problems.append(f"segments of epochs {sorted(node.manager._segments)}")
    checkpoints = node.checkpoints
    stale = sorted({key[0] for key in checkpoints._received if key[0] in checkpoints._stable})
    if stale:
        problems.append(f"checkpoint votes of stable epochs {stale}")
    for instance in node.orderer.active_instances():
        if not isinstance(instance, PbftSB):
            continue
        for slot in instance._slots.values():
            if slot.committed and (slot.prepares or slot.commits):
                problems.append(f"voters of committed slot {slot.sn}")
            if slot.committed and (
                slot.value is not None
                or slot.preprepare is not None
                or slot.prepared_proof is not None
            ):
                problems.append(f"decided value of committed slot {slot.sn}")
    undelivered = node.log.committed_count() - node.log.first_undelivered
    if node.log.resident_count() > undelivered:
        problems.append(
            f"{node.log.resident_count()} entries resident, {undelivered} undelivered"
        )
    decoded = [
        slot.sn
        for slot in node.storage.wal._index
        if slot.kind == RECORD_COMMIT and slot.record is not None
    ]
    if decoded:
        problems.append(f"WAL commits held decoded: {decoded}")
    return problems


def test_per_request_and_per_epoch_state_is_dropped_as_the_run_goes_on():
    """Twelve epochs of PBFT with storage: at epoch 6 and again at epoch 12
    no node holds state for a delivered request or a stable epoch, beyond
    what its windows need."""
    deployment = Deployment(
        _config(random_seed=1),
        workload=WorkloadConfig(num_clients=8, total_rate=300.0, duration=4.5),
        durable_storage=True,
    )
    checked = {}

    def poll():
        frontier = max(node.current_epoch for node in deployment.nodes)
        for target in CHECK_EPOCHS:
            if frontier >= target and target not in checked:
                checked[target] = {
                    node.node_id: _memory_violations(node) for node in deployment.nodes
                }
        if len(checked) < len(CHECK_EPOCHS):
            deployment.sim.schedule(0.01, poll)

    deployment.sim.schedule(0.01, poll)
    result = deployment.run()
    assert sorted(checked) == list(CHECK_EPOCHS)
    for epoch, per_node in checked.items():
        assert per_node == {node.node_id: [] for node in result.nodes}, epoch
    assert min(node.checkpoints.latest_stable_epoch() for node in result.nodes) >= 10


def test_restarted_node_memoizes_no_request_it_delivered():
    """A crash-restart catch-up delivers through WAL replay and state
    transfer, not SB-DELIVER; those paths drop memo entries too."""
    deployment = Deployment(
        _config(random_seed=3),
        workload=WorkloadConfig(num_clients=8, total_rate=300.0, duration=6.0),
        faults=[
            CrashSpec(node=2, trigger="at-time", time=1.5),
            RestartSpec(node=2, time=3.5),
        ],
    )
    result = deployment.run()
    restarted = result.nodes[2]
    assert result.report.recoveries and restarted.state_transfer.entries_applied > 0
    assert restarted.delivered_count() > 0
    memo = restarted.key_store._verified
    assert not any(_memo_key(r) in memo for r in _delivered_requests(restarted))


class TestDeliveryPathsDropTheMemoEntry:
    """Each delivery path, on a node with a key store of its own."""

    def _verified_batch(self, harness):
        requests = [harness.signed_request(timestamp=ts) for ts in range(3)]
        for request in requests:
            assert harness.node.validator.is_valid(request)
        assert len(harness.key_store._verified) == 3
        return Batch.of(requests)

    def test_sb_deliver(self):
        harness = NodeHarness()
        harness.node.start()
        batch = self._verified_batch(harness)
        segment = harness.node.manager.segments_for(0)[0]
        harness.node._sb_deliver(segment, segment.seq_nrs[0], batch)
        assert not harness.key_store._verified

    def test_recovery_replay(self):
        harness = NodeHarness()
        harness.node.restore_entry(0, self._verified_batch(harness), 0)
        assert not harness.key_store._verified

    def test_state_transfer(self):
        harness = NodeHarness()
        harness.node._apply_transferred_entry(0, self._verified_batch(harness), 0)
        assert not harness.key_store._verified

    def test_only_the_delivered_request_is_dropped(self):
        harness = NodeHarness()
        batch = self._verified_batch(harness)
        harness.node.restore_entry(0, Batch.of(batch.requests[:1]), 0)
        assert harness.key_store._verified == {_memo_key(r) for r in batch.requests[1:]}


GROWTH_CLIENTS = 16


def _in_flight_violations(deployment):
    """Every per-request holder that is larger than the work in flight."""
    problems = []
    timers = len(deployment.generator._timers)
    if timers > GROWTH_CLIENTS:
        problems.append(f"generator: {timers} arrival timers for {GROWTH_CLIENTS} clients")
    collector = deployment.collector
    completed = collector._completion_times
    incomplete = sum(1 for rid in collector._submit_times if rid not in completed)
    node_sets = len(collector._delivery_nodes)
    if node_sets > incomplete:
        problems.append(f"collector: {node_sets} delivery-node sets, {incomplete} incomplete")
    for node in deployment.nodes:
        committed = node.watermarks.committed
        stale = sum(
            1 for rid in node._proposed_this_epoch if committed(rid.client, rid.timestamp)
        )
        if stale:
            problems.append(f"node {node.node_id}: {stale} committed ids in the proposal index")
        log = node.log
        waiting = sum(
            len(held.entry)
            for sn, held in log._entries.items()
            if sn >= log.first_undelivered and not is_nil(held.entry)
        )
        if len(log._undelivered_rids) > waiting:
            problems.append(
                f"node {node.node_id}: {len(log._undelivered_rids)} ids awaiting "
                f"delivery, {waiting} requests committed above the delivered prefix"
            )
        for queue in node.buckets._queues.values():
            if len(queue._heap) > 2 * len(queue) + HEAP_SLACK:
                problems.append(
                    f"node {node.node_id} bucket {queue.bucket_id}: heap "
                    f"{len(queue._heap)} for {len(queue)} pending"
                )
                break
    return problems


@pytest.mark.parametrize("duration", [2.0, 4.0])
def test_per_request_holders_do_not_grow_with_run_length(duration):
    """A smaller ``sim_n8`` that never leaves epoch 0, run for T and 2T:
    sampled as it goes and at its end, every holder stays within what is
    in flight.  With two buckets per leader, 60 (T) to 125 (2T) requests
    pass through each bucket, more than ``HEAP_SLACK``, so a heap that is
    never compacted shows."""
    deployment = Deployment(
        ISSConfig(num_nodes=8, buckets_per_leader=2, random_seed=42),
        workload=WorkloadConfig(
            num_clients=GROWTH_CLIENTS, total_rate=500.0, duration=duration
        ),
    )
    found = {}

    def poll():
        for problem in _in_flight_violations(deployment):
            found.setdefault(problem.split(":")[0], problem)
        deployment.sim.schedule(0.5, poll)

    deployment.sim.schedule(0.5, poll)
    result = deployment.run()
    for problem in _in_flight_violations(deployment):
        found.setdefault(problem.split(":")[0], problem)
    assert max(node.current_epoch for node in result.nodes) == 0
    assert result.report.completed >= 200 * duration
    assert not found, "\n".join(sorted(found.values()))
