"""Crash→restart→catch-up integration tests (the storage subsystem's
acceptance criteria).

A node is crashed mid-epoch, stays down long enough for the live cluster to
order **at least two more epochs**, and is then restarted from its durable
storage.  For each SB protocol (PBFT, HotStuff, Raft) the restarted node
must

* recover its pre-crash state via WAL replay (sealed runs included, when
  it crashed after a stable checkpoint),
* fetch everything ordered while it was down via state transfer,
* catch up to the cluster frontier (recorded ``time_to_caught_up`` ≥ 0), and
* thereafter hold a delivered sequence identical to a never-crashed peer's.

Recovery is also seed-deterministic: the same seed must reproduce the same
recovery record and delivered trace, pinned across processes by
``tests/data/golden_trace_recovery.json`` (gate ``recovery``, replayed by
``tests/test_gates.py``).
"""

import json
from types import SimpleNamespace

import pytest

from repro.core.config import (
    NetworkConfig,
    WorkloadConfig,
    PROTOCOL_HOTSTUFF,
    PROTOCOL_PBFT,
    PROTOCOL_RAFT,
)
from repro.core.log import Log
from repro.core.state_transfer import LATEST_STABLE, StateRequest
from repro.harness.runner import Deployment
from repro.harness.scenarios import (
    PAYLOAD_BYTES,
    SCALED_BANDWIDTH_BPS,
    iss_config,
)
from repro.gate.table import GATES
from repro.harness.invariants import delivered_trace, traces_agree
from repro.runtime.faults import CrashSpec, RestartSpec
from repro.storage.disk import SimDisk
from repro.storage.wal import RECORD_COMMIT

VICTIM = 1


def delivered_prefix_matches(reference, restarted) -> bool:
    """Do two nodes agree on every position both have delivered?"""
    return traces_agree([delivered_trace(reference), delivered_trace(restarted)])

#: Per-protocol (crash_time, restart_time, duration): the downtime is sized
#: so the live cluster completes ≥ 2 epochs while the victim is away (epoch
#: cadence differs per protocol), asserted inside the test.
TIMINGS = {
    PROTOCOL_PBFT: (10.0, 20.0, 32.0),
    PROTOCOL_HOTSTUFF: (10.0, 24.0, 36.0),
    PROTOCOL_RAFT: (8.0, 24.0, 36.0),
}


def build_crash_restart_deployment(protocol, crash_time, restart_time, duration, seed=11):
    config = iss_config(protocol, 4, random_seed=seed)
    network_config = NetworkConfig(bandwidth_bps=SCALED_BANDWIDTH_BPS)
    workload = WorkloadConfig(
        num_clients=8, total_rate=800.0, duration=duration, payload_size=PAYLOAD_BYTES
    )
    return Deployment(
        config,
        network_config=network_config,
        workload=workload,
        faults=[
            CrashSpec(node=VICTIM, trigger="at-time", time=crash_time),
            RestartSpec(node=VICTIM, time=restart_time),
        ],
        recovery_poll=0.25,
    )


#: One crash-restart run per protocol, shared by every test that inspects it
#: (the runs are tens of virtual seconds; re-running them per test would
#: double the suite's wall time for identical — deterministic — results).
_RUNS = {}
#: The storage the victim's first (crashed) incarnation ran on, per protocol.
_CRASHED_STORAGE = {}


def observed_run(protocol):
    """Build and run ``protocol``'s crash-restart scenario; return
    ``(deployment, result, peer_epochs, the victim's first storage)``."""
    crash_time, restart_time, duration = TIMINGS[protocol]
    deployment = build_crash_restart_deployment(
        protocol, crash_time, restart_time, duration
    )

    # Snapshot the live peers' epoch frontier at crash and restart time, to
    # assert the victim really missed ≥ 2 epochs of progress.
    peer_epochs = {}

    def snap(tag):
        peer_epochs[tag] = max(
            node.current_epoch
            for node in deployment.nodes
            if node.node_id != VICTIM
        )

    deployment.sim.schedule_at(crash_time, lambda: snap("crash"))
    deployment.sim.schedule_at(restart_time - 1e-6, lambda: snap("restart"))

    crashed_storage = deployment.storages[VICTIM]
    return deployment, deployment.run(), peer_epochs, crashed_storage


def crash_restart_run(protocol):
    if protocol not in _RUNS:
        deployment, result, peer_epochs, crashed_storage = observed_run(protocol)
        _RUNS[protocol] = (deployment, result, peer_epochs)
        _CRASHED_STORAGE[protocol] = crashed_storage
    return _RUNS[protocol]


class TestCrashRestartRecovery:
    @pytest.mark.parametrize(
        "protocol", [PROTOCOL_PBFT, PROTOCOL_HOTSTUFF, PROTOCOL_RAFT]
    )
    def test_restarted_node_recovers_and_matches_peers(self, protocol):
        crash_time, restart_time, _duration = TIMINGS[protocol]
        _deployment, result, peer_epochs = crash_restart_run(protocol)
        report = result.report

        epochs_missed = peer_epochs["restart"] - peer_epochs["crash"]
        assert epochs_missed >= 2, (
            f"test setup: cluster only advanced {epochs_missed} epochs "
            f"during the downtime"
        )

        assert len(report.recoveries) == 1
        recovery = report.recoveries[0]
        assert recovery["node"] == float(VICTIM)
        # WAL replay recovered the pre-crash commits...
        assert recovery["wal_entries_replayed"] > 0
        # ...state transfer fetched what was ordered while down...
        assert recovery["state_transfer_entries"] > 0
        assert recovery["state_transfer_bytes"] > 0
        # ...and the node reached the cluster frontier...
        assert recovery["time_to_caught_up"] >= 0.0
        assert recovery["downtime"] == pytest.approx(restart_time - crash_time)

        victim = result.nodes[VICTIM]
        # ...and ended its catch-up mode by itself.
        assert not victim._catchup_aggressive
        peers = [node for node in result.nodes if node.node_id != VICTIM]
        # Identical committed sequence: same digest at every position shared
        # with every peer, and a delivered frontier no shorter than the
        # slowest peer's (peers may differ by a few in-flight positions at
        # the instant the run stops).
        traces = {node.node_id: delivered_trace(node) for node in result.nodes}
        for peer in peers:
            assert traces_agree([traces[peer.node_id], traces[VICTIM]])
        slowest = min(peer.log.first_undelivered for peer in peers)
        assert victim.log.first_undelivered >= slowest
        reference = min(peers, key=lambda peer: peer.log.first_undelivered)
        assert traces[VICTIM][:slowest] == traces[reference.node_id][:slowest]

    def test_snapshot_and_certificates_used_when_crash_follows_checkpoint(self):
        """Crashing after the first stable checkpoint exercises sealed-run
        replay and certificate restoration, not just unsealed commits."""
        _deployment, result, _peer_epochs = crash_restart_run(PROTOCOL_PBFT)
        recovery = result.report.recoveries[0]
        assert recovery["snapshot_entries"] > 0
        assert recovery["certificates_restored"] > 0
        assert recovery["resume_epoch"] > 0
        # The restarted incarnation's storage shows the sealing trail.
        stats = result.storages[VICTIM].stats()
        assert stats["seals"] > 0
        assert stats["sealed_entries"] > recovery["snapshot_entries"]

    def test_restart_opens_a_fresh_storage_on_the_victims_disk(self):
        """What outlives the crash is the node's disk, not a storage object:
        the restarted incarnation opened a new ``NodeStorage`` on the same
        ``SimDisk``, and its counters carry the node's lifetime trail."""
        _deployment, result, _peer_epochs = crash_restart_run(PROTOCOL_PBFT)
        crashed = _CRASHED_STORAGE[PROTOCOL_PBFT]
        restarted = result.storages[VICTIM]
        assert restarted is not crashed
        assert isinstance(restarted.disk, SimDisk) and restarted.disk is crashed.disk
        assert result.nodes[VICTIM].storage is restarted
        assert restarted.wal.seals_total > crashed.wal.seals_total > 0
        assert restarted.wal.appended_total > crashed.wal.appended_total

    def test_recovery_is_seed_deterministic(self):
        """A second run of the shared PBFT scenario (same seed) reproduces
        its recovery record, its counters and the victim's delivered trace."""
        runs = []
        for result in (crash_restart_run(PROTOCOL_PBFT)[1], observed_run(PROTOCOL_PBFT)[1]):
            runs.append(
                (
                    result.report.recoveries,
                    result.report.extra,
                    delivered_trace(result.nodes[VICTIM]),
                )
            )
        assert runs[0] == runs[1]

    def test_golden_trace_file_is_well_formed(self):
        golden = json.loads(GATES["recovery"].golden_path.read_text())
        assert golden["recovery"]["time_to_caught_up"] >= 0.0
        assert golden["trace_len"] > 0
        assert len(golden["trace_sha256"]) == 64


class TestEvictedHistory:
    def test_every_node_evicts_sealed_history_and_still_serves_all_of_it(self):
        """Live nodes and the restarted one hold only what they have not
        delivered yet (storage reads back sealed history and the delivered
        unsealed tail alike), yet answer a joiner's open-ended probe
        from epoch 0 exactly as a log that never evicted anything."""
        _deployment, result, _peer_epochs = crash_restart_run(PROTOCOL_PBFT)
        probe = StateRequest(first_epoch=0, last_epoch=LATEST_STABLE)
        for node in result.nodes:
            storage = result.storages[node.node_id]
            assert storage.sealed_count() > 0
            undelivered = node.log.committed_count() - node.log.first_undelivered
            assert node.log.resident_count() == undelivered
            # The reference is rebuilt from storage, not from the node's log.
            reference = Log()
            for record in storage.wal.records():
                if record.kind == RECORD_COMMIT:
                    reference.commit(record.sn, record.entry, record.epoch, now=0.0)
            assert reference.committed_count() == node.log.committed_count()
            served = node.state_transfer.build_responses(probe, node.log)
            assert served == node.state_transfer.build_responses(probe, reference)
            assert [response.epoch for response in served] == list(
                range(node.checkpoints.latest_stable_epoch() + 1)
            )
            reference.advance_delivery(now=0.0)
            assert delivered_trace(node) == delivered_trace(SimpleNamespace(log=reference))


class TestRestartEdges:
    def test_mirbft_baseline_survives_restart(self):
        """The baseline node class restarts through the same machinery."""
        from repro.baselines.mirbft import MirBFTNode

        config = iss_config(PROTOCOL_PBFT, 4, random_seed=5)
        deployment = Deployment(
            config,
            network_config=NetworkConfig(bandwidth_bps=SCALED_BANDWIDTH_BPS),
            workload=WorkloadConfig(
                num_clients=8, total_rate=600.0, duration=24.0,
                payload_size=PAYLOAD_BYTES,
            ),
            faults=[
                CrashSpec(node=VICTIM, trigger="at-time", time=6.0),
                RestartSpec(node=VICTIM, time=14.0),
            ],
            node_class=MirBFTNode,
            recovery_poll=0.25,
        )
        result = deployment.run()
        assert len(result.report.recoveries) == 1
        victim = result.nodes[VICTIM]
        reference = next(n for n in result.nodes if n.node_id != VICTIM)
        assert delivered_prefix_matches(reference, victim)
        # The replacement incarnation delivered beyond the replayed prefix.
        assert victim.log.first_undelivered > 0

    def test_restart_without_prior_crash_is_noop(self):
        deployment = build_crash_restart_deployment(PROTOCOL_PBFT, 6.0, 14.0, 20.0)
        deployment.injector.restart_now(0)  # node 0 never crashed
        assert deployment.injector.restarted_nodes() == ()

    def test_storage_disabled_by_default_without_restarts(self):
        config = iss_config(PROTOCOL_PBFT, 4, random_seed=5)
        deployment = Deployment(
            config,
            workload=WorkloadConfig(num_clients=2, total_rate=50.0, duration=1.0),
        )
        assert deployment.storages == {}
        assert all(node.storage is None for node in deployment.nodes)


class TestRecoveryWithDeadFirstResponder:
    def test_recovery_succeeds_when_first_probed_peer_is_down(self):
        """The staggered catch-up probe starts at the lowest-id peer; with
        that peer permanently crashed, the escalation chain must still
        recover the restarted node from the remaining peers."""
        config = iss_config(PROTOCOL_PBFT, 5, random_seed=11)
        deployment = Deployment(
            config,
            network_config=NetworkConfig(bandwidth_bps=SCALED_BANDWIDTH_BPS),
            workload=WorkloadConfig(
                num_clients=8, total_rate=800.0, duration=34.0,
                payload_size=PAYLOAD_BYTES,
            ),
            faults=[
                # Node 0 (the restarted node's first probe target) stays down.
                CrashSpec(node=0, trigger="at-time", time=2.0),
                CrashSpec(node=2, trigger="at-time", time=10.0),
                RestartSpec(node=2, time=20.0),
            ],
            recovery_poll=0.25,
        )
        result = deployment.run()
        report = result.report
        assert report.recoveries and report.recoveries[0]["time_to_caught_up"] >= 0.0
        restarted = result.nodes[2]
        # The dead first responder forced at least one escalation.
        assert restarted.state_transfer.probe_escalations >= 1
        reference = result.nodes[1]
        assert delivered_prefix_matches(reference, restarted)
        assert restarted.delivered_count() > 0
