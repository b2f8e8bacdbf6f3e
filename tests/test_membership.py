"""Dynamic membership battery: reconfiguration at epoch boundaries.

Three layers:

* unit tests of the membership primitives (ConfigTx wire format,
  :class:`~repro.core.membership.MembershipView` folding and quorum
  arithmetic, :class:`~repro.core.membership.MembershipTracker` sealing);
* end-to-end scenarios through the harness — join, removal mid-epoch,
  rolling upgrade of every replica, Byzantine eviction from membership,
  the combined-adversary regression — each gated on the standing
  invariants plus the membership-specific ones
  (:func:`repro.harness.invariants.check_membership`);
* determinism contracts: same-seed runs are bit-identical, and static
  runs never leave the genesis view.
"""

from __future__ import annotations

import pytest

from repro.core.config import NetworkConfig, WorkloadConfig
from repro.core.membership import (
    ACTION_ADD,
    ACTION_REMOVE,
    CONFIG_TX_MAGIC,
    ConfigTx,
    MembershipTracker,
    MembershipView,
    decode_config_tx,
    encode_config_tx,
    genesis_view,
)
from repro.core.types import Batch, Request, RequestId
from repro.harness.invariants import (
    check_invariants,
    check_membership,
    check_runs_equivalent,
    delivered_trace,
)
from repro.harness.runner import Deployment
from repro.harness.scenarios import (
    DEFAULT_FLUSH_INTERVAL,
    DEFAULT_MEMBERSHIP_EPOCH_LENGTH,
    GRACEFUL,
    PAYLOAD_BYTES,
    SCALED_BANDWIDTH_BPS,
    byzantine_eviction,
    combined_adversary,
    iss_config,
    membership_join,
    rolling_upgrade,
)
from repro.harness import scenarios
from repro.obs import ObsConfig
from repro.runtime.faults import MEMBER_ADD, MEMBER_REMOVE, MembershipSpec
from repro.workload.faults import membership_removals

PROTOCOLS = ("pbft", "hotstuff", "raft")


def membership_test_config(protocol, num_nodes, **overrides):
    """The membership scenarios' configuration: graceful degradation plus
    the short membership epoch."""
    overrides.setdefault("epoch_length", DEFAULT_MEMBERSHIP_EPOCH_LENGTH)
    return iss_config(protocol, num_nodes, **GRACEFUL, **overrides)


def run_membership(protocol, faults, rate, duration):
    """One membership-scenario run on 4 nodes; ``(result, row)``."""
    dep = scenarios.deployment(
        protocol, 4, faults, rate=rate, duration=duration, drain_time=12.0,
        epoch_length=DEFAULT_MEMBERSHIP_EPOCH_LENGTH, **GRACEFUL,
    )
    result = dep.run()
    return result, scenarios.row(dep, result)


# ---------------------------------------------------------------------- unit
def test_config_tx_roundtrip():
    for action in (ACTION_ADD, ACTION_REMOVE):
        tx = ConfigTx(action=action, node=7)
        assert decode_config_tx(encode_config_tx(tx)) == tx


def test_config_tx_decode_rejects_malformed():
    assert decode_config_tx(b"ordinary payload") is None
    assert decode_config_tx(CONFIG_TX_MAGIC) is None  # empty body
    assert decode_config_tx(CONFIG_TX_MAGIC + b"A" + b"\x00" * 7) is None  # short
    assert decode_config_tx(CONFIG_TX_MAGIC + b"X" + b"\x00" * 8) is None  # action
    assert decode_config_tx(CONFIG_TX_MAGIC + b"A" + b"\x00" * 9) is None  # long


def test_config_tx_validates():
    with pytest.raises(ValueError):
        ConfigTx(action="promote", node=1)
    with pytest.raises(ValueError):
        ConfigTx(action=ACTION_ADD, node=-1)


def test_view_apply_is_idempotent_per_tx():
    """Duplicate ConfigTxs (a retried submission committed twice) no-op."""
    view = MembershipView(nodes=(0, 1, 2, 3))
    grown = view.apply([ConfigTx(ACTION_ADD, 4)])
    assert grown.nodes == (0, 1, 2, 3, 4)
    assert grown.apply([ConfigTx(ACTION_ADD, 4)]) is grown
    shrunk = grown.apply([ConfigTx(ACTION_REMOVE, 0)])
    assert shrunk.nodes == (1, 2, 3, 4)
    assert shrunk.apply([ConfigTx(ACTION_REMOVE, 0)]) is shrunk


def test_view_never_empties():
    view = MembershipView(nodes=(0,))
    assert view.apply([ConfigTx(ACTION_REMOVE, 0)]) is view


def test_view_quorums_intersect_at_every_size():
    """Any two strong quorums must intersect in ≥ f+1 (BFT) / ≥ 1 (CFT) nodes.

    This is the property the genesis ``2f+1`` formula only has at
    n = 3f+1 — dynamic views take every size, so the battery pins the
    general form (the n=3 case is exactly the fork the rolling-upgrade
    scenario hits with the naive arithmetic).
    """
    for n in range(1, 12):
        byz = MembershipView(nodes=tuple(range(n)), byzantine=True)
        assert 2 * byz.strong_quorum - n >= byz.max_faulty + 1
        cft = MembershipView(nodes=tuple(range(n)), byzantine=False)
        assert 2 * cft.strong_quorum - n >= 1
    # The familiar shape is unchanged: n = 3f+1 still yields 2f+1.
    assert MembershipView(nodes=(0, 1, 2, 3)).strong_quorum == 3
    assert MembershipView(nodes=tuple(range(7))).strong_quorum == 5


def _batch(client: int, timestamp: int, payload: bytes) -> Batch:
    return Batch.of([Request(rid=RequestId(client, timestamp), payload=payload)])


#: The admin identity of the tracker unit tests; client 1 is ordinary.
ADMIN = 0


def _tracker(epoch_length: int = 4) -> MembershipTracker:
    config = membership_test_config("pbft", 4, epoch_length=epoch_length)
    return MembershipTracker(config, ADMIN)


def _commit(tracker: MembershipTracker, sn: int, batch: Batch) -> None:
    tracker.note_commit(sn, batch.requests)


def test_tracker_seals_config_txs_in_order():
    tracker = _tracker()
    _commit(tracker, 2, _batch(ADMIN, 2, encode_config_tx(ConfigTx(ACTION_REMOVE, 4))))
    _commit(tracker, 0, _batch(ADMIN, 1, encode_config_tx(ConfigTx(ACTION_ADD, 4))))
    _commit(tracker, 1, _batch(1, 1, b"app payload"))
    _commit(tracker, 3, _batch(1, 2, b"more app"))
    added, removed = tracker.seal_epoch(0)
    # add then remove within one epoch cancels before activation, whatever
    # order the positions committed in
    assert (added, removed) == ((), ())
    assert tracker.view_for(1).nodes == (0, 1, 2, 3)
    assert [tx.action for _e, tx in tracker.committed_txs] == [
        ACTION_ADD, ACTION_REMOVE,
    ]


def test_tracker_activation_is_exactly_once():
    tracker = _tracker()
    payload = encode_config_tx(ConfigTx(ACTION_ADD, 4))
    # The same ConfigTx committed twice (retried submission, two rids).
    _commit(tracker, 0, _batch(ADMIN, 1, payload))
    _commit(tracker, 1, _batch(ADMIN, 2, payload))
    _commit(tracker, 2, _batch(1, 1, b"app"))
    _commit(tracker, 3, _batch(1, 2, b"app"))
    assert tracker.seal_epoch(0) == ((4,), ())
    assert tracker.view_for(1).nodes == (0, 1, 2, 3, 4)
    # Sealing again is a no-op — activation happened exactly once.
    assert tracker.seal_epoch(0) == ((), ())
    assert tracker.activations == [(1, (4,), ())]


def test_tracker_rebuilt_log_derives_identical_views():
    """The view sequence is a pure function of the committed log prefix —
    a node that reconstructs its log (WAL replay, state transfer, in any
    commit order) derives the same views without any extra agreement."""
    commits = [(0, _batch(ADMIN, 1, encode_config_tx(ConfigTx(ACTION_ADD, 4))))]
    commits += [(sn, _batch(1, sn, b"app")) for sn in range(1, 8)]
    first, rebuilt = _tracker(), _tracker()
    for sn, batch in commits:
        _commit(first, sn, batch)
    for sn, batch in reversed(commits):
        _commit(rebuilt, sn, batch)
    for tracker in (first, rebuilt):
        tracker.seal_epoch(0)
        tracker.seal_epoch(1)
    for epoch in range(3):
        assert rebuilt.view_for(epoch).nodes == first.view_for(epoch).nodes
    assert rebuilt.view_for(2).nodes == (0, 1, 2, 3, 4)


def test_only_the_admin_reconfigures():
    """A magic-prefixed payload of any other client is plain data, and a
    tracker without an admin keeps the genesis view forever."""
    config = membership_test_config("pbft", 4, epoch_length=4)
    forged = encode_config_tx(ConfigTx(ACTION_REMOVE, 0))
    for tracker in (MembershipTracker(config, ADMIN), MembershipTracker(config, None)):
        for sn in range(4):
            tracker.note_commit(sn, _batch(1, sn, forged).requests)
        assert tracker.seal_epoch(0) == ((), ())
        assert tracker.view_for(1).nodes == (0, 1, 2, 3)
        assert tracker.committed_txs == []
    static = MembershipTracker(config, None)
    static.note_commit(0, _batch(ADMIN, 0, forged).requests)
    assert static.seal_epoch(0) == ((), ())
    # Nothing can change a static view, so every epoch's view is settled.
    assert static.view_settled(1_000) and not _tracker().view_settled(5)


def test_genesis_view_matches_config():
    config = membership_test_config("raft", 5)
    view = genesis_view(config)
    assert view.nodes == (0, 1, 2, 3, 4)
    assert view.byzantine == config.byzantine is False


# ----------------------------------------------------------------- scenarios
def _assert_clean(row):
    assert row["violations"] == []
    assert row["all_complete"]
    assert row["prefixes_identical"]


def test_join_activates_at_epoch_boundary():
    row = membership_join("pbft", duration=12.0)
    _assert_clean(row)
    assert row["final_view"] == [0, 1, 2, 3, 4]
    assert row["all_joined"] and row["time_to_join_max"] > 0.0
    assert row["config_txs_committed"] == 1
    # ConfigTxs activate at the NEXT epoch boundary, never retroactively.
    assert all(a["epoch"] >= 1 for a in row["activations"])


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_quorum_recomputation_on_join_and_leave(protocol):
    """n → n+1 and n → n-1 recompute n, f and the quorums on every node."""
    result, row = run_membership(
        protocol,
        [MembershipSpec(node=4, action=MEMBER_ADD, time=2.0)],
        rate=300.0, duration=10.0,
    )
    assert row["violations"] == []
    grown = [n.membership.current_view() for n in result.nodes if not n.crashed]
    assert all(v.num_nodes == 5 for v in grown)
    expected = MembershipView(nodes=(0, 1, 2, 3, 4), byzantine=grown[0].byzantine)
    assert all(v.strong_quorum == expected.strong_quorum for v in grown)

    result, row = run_membership(
        protocol,
        membership_removals([3], start=2.0),
        rate=300.0, duration=10.0,
    )
    assert row["violations"] == []
    shrunk = [
        n.membership.current_view()
        for n in result.nodes
        if not n.crashed and n.node_id != 3
    ]
    assert all(v.num_nodes == 3 for v in shrunk)
    expected = MembershipView(nodes=(0, 1, 2), byzantine=shrunk[0].byzantine)
    assert all(v.strong_quorum == expected.strong_quorum for v in shrunk)


def test_sb_contexts_fix_their_epochs_quorums(monkeypatch):
    """Across a join and two leaves (n = 4 → 5 → 3) every SB instance's
    context carries exactly its own epoch's view arithmetic: the sizes are
    computed once at construction and must never be the previous view's."""
    from repro.core.iss import ISSNode

    built = []
    build_context = ISSNode._build_context

    def recording(node, segment, interval):
        context = build_context(node, segment, interval)
        built.append((node, context))
        return context

    monkeypatch.setattr(ISSNode, "_build_context", recording)
    result, row = run_membership(
        "pbft",
        [
            MembershipSpec(node=4, action=MEMBER_ADD, time=2.0),
            *membership_removals([4, 3], start=8.0, spacing=4.0),
        ],
        rate=300.0, duration=20.0,
    )
    assert row["violations"] == []
    assert row["final_view"] == [0, 1, 2]
    sizes = set()
    for node, context in built:
        view = node.membership.view_for(context.segment.epoch)
        assert context.membership == view
        assert context.all_nodes == list(view.nodes)
        assert (
            context.num_nodes, context.max_faulty,
            context.strong_quorum, context.weak_quorum,
        ) == (
            view.num_nodes, view.max_faulty, view.strong_quorum, view.weak_quorum
        )
        sizes.add((view.num_nodes, view.strong_quorum))
    # n=4: 2f+1 = 3; n=5: ⌈(n+f+1)/2⌉ = 4; n=3: f=0 but quorum 2, not 1.
    assert sizes == {(4, 3), (5, 4), (3, 2)}


def test_ordinary_client_config_tx_changes_no_view():
    """Only the admin identity reconfigures: a workload client's
    magic-prefixed payload is ordered and delivered like any other, and
    the views follow the scheduled join alone."""
    dep = scenarios.deployment(
        "pbft", 4, [MembershipSpec(node=4, action=MEMBER_ADD, time=2.0)],
        rate=300.0, duration=10.0, drain_time=12.0,
        epoch_length=DEFAULT_MEMBERSHIP_EPOCH_LENGTH, **GRACEFUL,
    )
    forged = encode_config_tx(ConfigTx(ACTION_REMOVE, 1))
    dep.sim.schedule_at(3.0, lambda: dep.clients[0].submit(forged))
    result = dep.run()
    row = scenarios.row(dep, result)
    assert row["violations"] == []
    assert row["final_view"] == [0, 1, 2, 3, 4]
    assert [a["removed"] for a in row["activations"]] == [[]]
    assert row["config_txs_committed"] == 1


def test_new_node_bootstrap_lands_prefix_identical():
    result, row = run_membership(
        "pbft",
        [MembershipSpec(node=4, action=MEMBER_ADD, time=3.0)],
        rate=400.0, duration=15.0,
    )
    assert row["all_joined"]
    joiner = result.nodes[4]
    reference = max(
        (n for n in result.nodes if not n.crashed), key=lambda n: n.log.first_undelivered
    )
    trace = delivered_trace(joiner)
    assert len(trace) > 0
    assert trace == delivered_trace(reference)[: len(trace)]
    assert check_invariants(result) == []


def test_removal_during_inflight_epoch():
    """A remove-ConfigTx submitted mid-epoch activates only at the boundary:
    the victim finishes the epoch that committed it, retires exactly at the
    boundary, and its delivered prefix stays on the agreed order."""
    result, row = run_membership(
        "pbft",
        membership_removals([3], start=4.0),
        rate=400.0, duration=15.0,
    )
    assert row["violations"] == []
    victim = result.nodes[3]
    assert victim.retired and victim.crashed
    activation = next(a for a in row["activations"] if 3 in a["removed"])
    epoch_length = victim.config.epoch_length
    assert victim.log.first_undelivered == activation["epoch"] * epoch_length
    assert check_membership(result) == []


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_rolling_upgrade_every_replica(protocol):
    """The acceptance gate: remove+re-add all n replicas in turn with 100 %
    correct-client completion and delivered-prefix identity throughout."""
    row = rolling_upgrade(protocol)
    _assert_clean(row)
    assert row["upgrade_complete"], row
    assert row["upgraded"] == row["nodes"]
    assert sorted(row["final_view"]) == list(range(row["nodes"]))


def test_byzantine_replica_evicted_from_membership():
    row = byzantine_eviction("pbft")
    _assert_clean(row)
    assert row["evicted_from_membership"]
    assert row["detection_time"] >= 0.0
    assert row["adversary"] not in row["final_view"]


def test_combined_adversary_regression():
    """Abusive clients + Byzantine replica in one run: the replica ends
    evicted from membership and every correct client still completes."""
    row = combined_adversary("pbft")
    assert row["violations"] == []
    assert row["all_complete"]  # over the correct clients only
    assert row["prefixes_identical"]
    assert row["evicted_from_membership"]


# -------------------------------------------------------------- determinism
def _deployment(flush: float = DEFAULT_FLUSH_INTERVAL, seed: int = 7):
    config = membership_test_config("pbft", 4, random_seed=seed)
    return Deployment(
        config,
        network_config=NetworkConfig(
            bandwidth_bps=SCALED_BANDWIDTH_BPS,
            num_datacenters=4,
            batch_flush_interval=flush,
        ),
        workload=WorkloadConfig(
            num_clients=6, total_rate=400.0, duration=10.0, payload_size=PAYLOAD_BYTES
        ),
        faults=[
            MembershipSpec(node=4, action=MEMBER_ADD, time=2.0),
            MembershipSpec(node=0, action=MEMBER_REMOVE, time=6.0),
        ],
        recovery_poll=0.25,
        probe_stagger=0.5,
        obs=ObsConfig.disabled(),
        drain_time=6.0,
    )


def test_same_seed_reconfiguration_is_deterministic():
    dep = _deployment()
    a = dep.run()
    b = _deployment().run()
    assert check_runs_equivalent(a, b) == []
    assert scenarios.row(dep, a)["final_view"] == [1, 2, 3, 4]


def test_reconfiguration_with_batching_on_and_off():
    """Wire batching changes the schedule, never the outcome: both runs are
    clean and converge to the same final view."""
    for dep in (_deployment(flush=DEFAULT_FLUSH_INTERVAL), _deployment(flush=0.0)):
        result = dep.run()
        assert check_invariants(result) == []
        assert scenarios.row(dep, result)["final_view"] == [1, 2, 3, 4]
        assert all(
            c.requests_completed == c.requests_submitted for c in result.clients
        )


def test_static_runs_carry_no_membership_machinery():
    """Without membership specs there is no admin client, no activation
    and no membership section in the row: every node's tracker keeps the
    genesis view — the schedule-neutrality the golden traces pin."""
    config = membership_test_config("pbft", 4)
    deployment = Deployment(
        config,
        network_config=NetworkConfig(
            bandwidth_bps=SCALED_BANDWIDTH_BPS, batch_flush_interval=0.0
        ),
        workload=WorkloadConfig(
            num_clients=4, total_rate=200.0, duration=3.0, payload_size=PAYLOAD_BYTES
        ),
        obs=ObsConfig.disabled(),
    )
    assert deployment.admin_client is None
    result = deployment.run()
    assert "final_view" not in scenarios.row(deployment, result)
    assert deployment.activations == [] and deployment.joins == []
