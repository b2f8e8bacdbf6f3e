"""A replica's memory is bounded by its windows, not by its uptime.

Client watermarks bound per-client state (Sec. 3.7) and a stable checkpoint
garbage-collects everything below it (Sec. 3.4).  These tests pin the
per-request and per-epoch state that has to go with them: the signature
memo entry of a delivered request, the segment descriptors of finished
epochs, the checkpoint votes of stable epochs, the PBFT voter sets of
committed slots and the log entries already sealed into the archive.
"""

from repro.core.config import ISSConfig, WorkloadConfig
from repro.core.types import Batch
from repro.harness.runner import Deployment
from repro.pbft.pbft import PbftSB
from repro.runtime.faults import CrashSpec, RestartSpec
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
    sealed = node.storage.snapshots.entry_count()
    unsealed_tail = node.log.committed_count() - sealed
    if node.log.resident_count() > unsealed_tail:
        problems.append(
            f"{node.log.resident_count()} entries resident, unsealed tail {unsealed_tail}"
        )
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
