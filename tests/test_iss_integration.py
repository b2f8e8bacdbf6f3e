"""Integration tests: full ISS deployments over the simulated WAN.

These tests check the SMR properties (Section 2.1) end-to-end: agreement and
totality across nodes, integrity of delivered requests, no-duplication, and
liveness under the configured faults.
"""

import pytest

from repro.core.config import ISSConfig, WorkloadConfig, NetworkConfig
from repro.core.types import is_nil
from repro.harness.runner import Deployment
from repro.workload.faults import epoch_start_crashes


def small_deployment(protocol="pbft", num_nodes=4, rate=200.0, duration=8.0, **config_overrides):
    defaults = dict(
        epoch_length=16,
        max_batch_size=32,
        batch_rate=8.0,
        max_batch_timeout=0.5,
        view_change_timeout=3.0,
        epoch_change_timeout=3.0,
    )
    if protocol == "hotstuff":
        defaults.update(batch_rate=None, min_batch_timeout=0.1, max_batch_timeout=0.0, min_segment_size=4)
    if protocol == "raft":
        defaults.update(byzantine=False, client_signatures=False, min_segment_size=4,
                        election_timeout=(3.0, 6.0))
    defaults.update(config_overrides)
    config = ISSConfig(num_nodes=num_nodes, protocol=protocol, **defaults)
    workload = WorkloadConfig(num_clients=4, total_rate=rate, duration=duration, payload_size=128)
    return Deployment(config, workload=workload, drain_time=8.0)


def logs_of(result):
    return {node.node_id: node.log for node in result.nodes if not node.crashed}


def assert_smr_agreement(result):
    """SMR2/SMR3 over the delivered prefix of every pair of correct nodes."""
    logs = logs_of(result)
    reference_node = min(logs)
    reference = logs[reference_node]
    for node_id, log in logs.items():
        common = min(reference.first_undelivered, log.first_undelivered)
        for sn in range(common):
            a, b = reference.entry(sn), log.entry(sn)
            if is_nil(a) or is_nil(b):
                assert is_nil(a) == is_nil(b), f"nil mismatch at {sn}"
            else:
                assert a.digest() == b.digest(), f"batch mismatch at {sn}"


def assert_no_duplication(result):
    """No request occupies two positions in any node's delivered log."""
    for node in result.nodes:
        if node.crashed:
            continue
        seen = set()
        for sn in range(node.log.first_undelivered):
            entry = node.log.entry(sn)
            if is_nil(entry):
                continue
            for request in entry.requests:
                assert request.rid not in seen, f"request {request.rid} delivered twice"
                seen.add(request.rid)


class TestFaultFreePBFT:
    @pytest.fixture(scope="class")
    def result(self):
        return small_deployment("pbft").run()

    def test_all_submitted_requests_delivered(self, result):
        assert result.report.completed == result.report.submitted > 0

    def test_agreement_across_nodes(self, result):
        assert_smr_agreement(result)

    def test_no_duplication(self, result):
        assert_no_duplication(result)

    def test_all_nodes_advance_epochs(self, result):
        assert all(node.epochs_completed >= 2 for node in result.nodes)

    def test_no_nil_entries_without_faults(self, result):
        assert all(node.nil_committed == 0 for node in result.nodes)

    def test_latency_reasonable(self, result):
        assert 0 < result.report.latency.mean < 5.0

    def test_integrity_only_submitted_requests_delivered(self, result):
        submitted = {r for c in result.clients for r in range(c.requests_submitted)}
        for node in result.nodes:
            for sn in range(node.log.first_undelivered):
                entry = node.log.entry(sn)
                if is_nil(entry):
                    continue
                for request in entry.requests:
                    assert request.rid.client < len(result.clients)
                    assert request.rid.timestamp < result.clients[request.rid.client].requests_submitted

    def test_checkpoints_garbage_collect_instances(self, result):
        node = result.nodes[0]
        # Old epochs' instances are gone; only the current (and possibly the
        # previous, not-yet-checkpointed) epoch's instances remain.
        assert node.orderer.instances_stopped > 0
        active_epochs = {inst.segment.epoch for inst in node.orderer.active_instances()}
        assert all(e >= node.current_epoch - 1 for e in active_epochs)


class TestFaultFreeHotStuff:
    @pytest.fixture(scope="class")
    def result(self):
        return small_deployment("hotstuff").run()

    def test_delivery_and_agreement(self, result):
        assert result.report.completed == result.report.submitted > 0
        assert_smr_agreement(result)
        assert_no_duplication(result)


class TestFaultFreeRaft:
    @pytest.fixture(scope="class")
    def result(self):
        return small_deployment("raft").run()

    def test_delivery_and_agreement(self, result):
        assert result.report.completed == result.report.submitted > 0
        assert_smr_agreement(result)
        assert_no_duplication(result)


class TestCrashFaultIntegration:
    @pytest.fixture(scope="class")
    def result(self):
        deployment = small_deployment("pbft", rate=200.0, duration=20.0)
        for spec in epoch_start_crashes(1, 4, epoch=0):
            deployment.injector.schedule(spec)
        deployment.injector.on_crash = deployment._on_node_crash
        return deployment.run()

    def test_liveness_despite_crash(self, result):
        assert result.report.completed == result.report.submitted > 0

    def test_agreement_despite_crash(self, result):
        assert_smr_agreement(result)
        assert_no_duplication(result)

    def test_nil_entries_recorded_for_crashed_leader(self, result):
        alive = [n for n in result.nodes if not n.crashed]
        assert any(n.nil_committed > 0 for n in alive)

    def test_blacklist_removes_crashed_leader(self, result):
        alive = [n for n in result.nodes if not n.crashed][0]
        crashed_id = [n.node_id for n in result.nodes if n.crashed][0]
        later_epoch = alive.current_epoch
        assert crashed_id not in alive.manager.leaders_for(later_epoch)

    def test_resurrection_or_delivery_of_all_client_requests(self, result):
        """Every submitted request is eventually delivered (none lost to the crash)."""
        assert result.report.completed == result.report.submitted
