"""A fault schedule is one value: ``Deployment(faults=[...])``.

Pins the three promises of the single fault list — targets are validated
once at construction, arming order does not depend on list order, and the
eight per-kind keywords are gone (the injector's one ``schedule`` is pinned
next to its other unit tests in ``test_workload.py``) — plus the helpers
that ride along: the prefix-agreement oracle, the catch-up watcher and the
KV client's atomic state file.
"""

import argparse
import json
import os

import pytest

from repro import kv_client
from repro.core.config import NetworkConfig, WorkloadConfig
from repro.harness.invariants import check_runs_equivalent, traces_agree
from repro.harness.runner import Deployment
from repro.harness.scenarios import (
    PAYLOAD_BYTES,
    SCALED_BANDWIDTH_BPS,
    DEFAULT_MEMBERSHIP_EPOCH_LENGTH,
    GRACEFUL,
    iss_config,
    row,
)
from repro.net.deploy import prefixes_identical
from repro.obs.config import ObsConfig
from repro.runtime.faults import (
    MEMBER_ADD,
    MEMBER_REMOVE,
    ByzantineSpec,
    CrashSpec,
    LinkFaultSpec,
    MaliciousClientSpec,
    MembershipSpec,
    RestartSpec,
    StragglerSpec,
)
from repro.sim.faults import FaultInjector
from repro.sim.simulator import Simulator
from repro.storage.recovery import watch_catchup


def build(faults, duration=1.0, **kwargs):
    return Deployment(
        iss_config(
            "pbft", 4, random_seed=7,
            epoch_length=DEFAULT_MEMBERSHIP_EPOCH_LENGTH, **GRACEFUL,
        ),
        network_config=NetworkConfig(
            bandwidth_bps=SCALED_BANDWIDTH_BPS, num_datacenters=4
        ),
        workload=WorkloadConfig(
            num_clients=4, total_rate=300.0, duration=duration,
            payload_size=PAYLOAD_BYTES,
        ),
        faults=faults,
        obs=ObsConfig.disabled(),
        **kwargs,
    )


# ------------------------------------------------------------- arming order
CRASH = CrashSpec(node=2, trigger="at-time", time=2.0)
RESTART = RestartSpec(node=2, time=5.0)
# Same instant as the crash and the join: ties are what arming order decides.
LOSSY = LinkFaultSpec(src=0, dst=1, start_time=2.0, loss_rate=0.2, retransmit=0.3, seed=7)
SLOW = LinkFaultSpec(src=3, dst=0, start_time=2.0, end_time=6.0, extra_delay=0.01, seed=7)
JOIN = MembershipSpec(node=4, action=MEMBER_ADD, time=2.0)
LEAVE = MembershipSpec(node=0, action=MEMBER_REMOVE, time=6.0)

CANONICAL = [CRASH, RESTART, LOSSY, SLOW, JOIN, LEAVE]
#: Kinds interleaved; list order kept within a kind (it is part of the rule).
SHUFFLED = [JOIN, LOSSY, RESTART, LEAVE, CRASH, SLOW]


def test_arming_order_is_independent_of_list_order(monkeypatch):
    armed = []
    schedule = FaultInjector.schedule

    def recording(self, spec):
        armed.append(spec)
        schedule(self, spec)

    monkeypatch.setattr(FaultInjector, "schedule", recording)
    runs, rows = [], []
    for faults in (CANONICAL, SHUFFLED):
        del armed[:]
        deployment = build(faults, duration=10.0, drain_time=6.0)
        assert armed == CANONICAL
        assert deployment.faults == tuple(faults)
        runs.append(deployment.run())
        rows.append(row(deployment, runs[-1]))
    assert check_runs_equivalent(*runs) == []
    assert rows[0]["final_view"] == [1, 2, 3, 4]
    assert len(runs[0].report.recoveries) == 1


def test_faults_of_reads_one_kind_in_list_order():
    deployment = build(SHUFFLED)
    assert deployment.faults_of(LinkFaultSpec) == [LOSSY, SLOW]
    assert deployment.faults_of(MembershipSpec) == [JOIN, LEAVE]
    assert deployment.faults_of(StragglerSpec) == []
    # The defaults still derive from the list.
    assert deployment.membership_enabled and deployment.durable_storage
    assert not build([CRASH]).durable_storage


# ------------------------------------------------------------- one spelling
@pytest.mark.parametrize(
    "removed",
    [
        "crash_specs", "straggler_specs", "restart_specs", "byzantine_specs",
        "malicious_client_specs", "partition_specs", "link_fault_specs",
        "membership_specs",
    ],
)
def test_removed_keyword_is_a_type_error(removed):
    with pytest.raises(TypeError, match=removed):
        build([], **{removed: []})


# --------------------------------------------------------------- validation
@pytest.mark.parametrize(
    "faults, error, names",
    [
        # One behaviour per target: the second spec used to win silently.
        ([StragglerSpec(node=1), StragglerSpec(node=1, delay=1.0)], ValueError, "StragglerSpec"),
        ([ByzantineSpec(node=3), ByzantineSpec(node=3, behaviour="replay")], ValueError, "ByzantineSpec"),
        ([MaliciousClientSpec(client=0), MaliciousClientSpec(client=0)], ValueError, "MaliciousClientSpec"),
        # Targets outside genesis ∪ joiners: used to be an IndexError at fire time.
        ([CrashSpec(node=4, time=1.0)], ValueError, "CrashSpec"),
        ([JOIN, CrashSpec(node=5, time=1.0)], ValueError, "CrashSpec"),
        ([RestartSpec(node=9, time=1.0)], ValueError, "RestartSpec"),
        ([StragglerSpec(node=-1)], ValueError, "StragglerSpec"),
        ([ByzantineSpec(node=4)], ValueError, "ByzantineSpec"),
        ([MembershipSpec(node=7, action=MEMBER_REMOVE, time=1.0)], ValueError, "MembershipSpec"),
        ([MaliciousClientSpec(client=4)], ValueError, "MaliciousClientSpec"),
        ([CRASH, "crash node 3"], TypeError, "crash node 3"),
    ],
)
def test_fault_targets_are_validated_at_construction(faults, error, names):
    with pytest.raises(error, match=names):
        build(faults)


def test_valid_targets_pass_validation():
    # A joiner is a legal crash target; a straggler may also be Byzantine.
    build([JOIN, CrashSpec(node=4, time=9.0), StragglerSpec(node=3),
           ByzantineSpec(node=3, behaviour="replay")])


# ------------------------------------------------- prefix-agreement oracle
def test_traces_agree_is_pairwise_agreement_on_shared_positions():
    long = [(0, "a"), (1, "b"), (2, "c")]
    assert traces_agree([])
    assert traces_agree([long])
    assert traces_agree([long[:1], long, long[:2], []])
    assert not traces_agree([long, [(0, "a"), (1, "x")]])
    # Two long traces disagreeing beyond the shortest one's end still disagree.
    assert not traces_agree([long[:1], long, [(0, "a"), (1, "b"), (2, "x")]])
    assert prefixes_identical([[(1, 0), (1, 1)], [(1, 0)]])
    assert not prefixes_identical([[(1, 0), (1, 1)], [(1, 0), (2, 0)], [(1, 0)]])


# ------------------------------------------------------- catch-up watcher
def test_watch_catchup_rearms_until_done_and_stops_when_superseded():
    sim = Simulator(seed=1)
    done = []
    watch_catchup(
        sim, 0.25, still_current=lambda: True,
        caught_up=lambda: sim.now >= 1.0, on_caught_up=lambda: done.append(sim.now),
    )
    sim.run()
    assert done == [1.0] and sim.events_executed == 4  # ticks at .25 .5 .75 1.0

    sim = Simulator(seed=1)
    watch_catchup(
        sim, 0.25, still_current=lambda: sim.now < 0.5,
        caught_up=lambda: False, on_caught_up=lambda: done.append("never"),
    )
    sim.run()
    assert done == [1.0] and sim.events_executed == 2  # gave up at t=0.5


# ------------------------------------------------- KV client state file
def test_interrupted_timestamp_save_keeps_the_previous_file(tmp_path, monkeypatch):
    args = argparse.Namespace(
        client_id=3, host="127.0.0.1", base_port=7400, state_dir=str(tmp_path)
    )
    kv_client.save_next_timestamp(args, 41)
    assert kv_client.load_next_timestamp(args) == 41

    def torn_dump(obj, handle):
        handle.write('{"next_time')
        raise OSError("power lost mid-write")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError):
        kv_client.save_next_timestamp(args, 42)
    monkeypatch.undo()
    # A reused timestamp would be silently rejected by the replicas.
    assert kv_client.load_next_timestamp(args) == 41
    kv_client.save_next_timestamp(args, 42)
    assert kv_client.load_next_timestamp(args) == 42
    assert sorted(os.listdir(tmp_path)) == ["client3-127.0.0.1-7400.json"]
