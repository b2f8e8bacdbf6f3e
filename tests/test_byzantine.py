"""Active Byzantine adversary suite: safety, detection, containment.

Covers the acceptance claims of the adversary subsystem:

* with f Byzantine leaders (equivocation or censorship) all correct nodes
  deliver identical request sequences over every shared position,
* censored-bucket requests are eventually delivered once rotation hands
  the buckets to honest leaders (Blacklist policy active),
* detection counters (equivocations detected, invalid signatures
  rejected) are counted on every correct node,
* the machinery composes with the rest of the stack: wire batching on
  AND off, and a correct node crash/restarting in the same run as a
  Byzantine leader (the PR 3 liveness wedges showed SB changes must be
  stressed exactly this way),
* the seeded Byzantine gate scenario replays against its golden trace
  (``tests/test_gates.py``).
"""

import json

import pytest

from repro.core.config import ISSConfig, NetworkConfig, WorkloadConfig
from repro.core.types import Batch, Request, RequestId
from repro.harness.invariants import check_prefix_identity
from repro.harness.runner import Deployment
from repro.harness.scenarios import censorship_rotation
from repro.sim.adversary import (
    EquivocationAdversary,
    InvalidVoteAdversary,
    ReplayAdversary,
    make_adversary,
)
from repro.runtime.faults import (
    BYZ_CENSOR,
    BYZ_EQUIVOCATE,
    BYZ_INVALID_VOTES,
    BYZ_REPLAY,
    ByzantineSpec,
    CrashSpec,
    RestartSpec,
)
from repro.workload.faults import byzantine_leaders, censorship_targets

from repro.gate.table import GATES


def small_config(protocol="pbft", num_nodes=4, seed=7, **overrides):
    defaults = dict(
        epoch_length=16,
        max_batch_size=64,
        batch_rate=8.0,
        view_change_timeout=5.0,
        epoch_change_timeout=5.0,
        send_client_responses=False,
        random_seed=seed,
    )
    if protocol == "hotstuff":
        defaults.update(batch_rate=None, min_batch_timeout=0.1, max_batch_timeout=0.0,
                        min_segment_size=4)
    if protocol == "raft":
        defaults.update(byzantine=False, client_signatures=False, min_segment_size=4,
                        election_timeout=(5.0, 10.0))
    defaults.update(overrides)
    return ISSConfig(num_nodes=num_nodes, protocol=protocol, **defaults)


def honest_nodes(result, specs):
    """The live nodes no Byzantine spec targets."""
    adversaries = {spec.node for spec in specs}
    return [
        node
        for node in result.nodes
        if node.node_id not in adversaries and not node.crashed
    ]


def run_adversarial(
    config,
    specs,
    duration=12.0,
    rate=300.0,
    drain_time=10.0,
    batch_flush_interval=0.0,
    other_faults=(),
):
    deployment = Deployment(
        config,
        network_config=NetworkConfig(batch_flush_interval=batch_flush_interval),
        workload=WorkloadConfig(num_clients=4, total_rate=rate, duration=duration),
        faults=[*specs, *other_faults],
        drain_time=drain_time,
    )
    return deployment, deployment.run()


class TestByzantineSpec:
    def test_rejects_unknown_behaviour(self):
        with pytest.raises(ValueError):
            ByzantineSpec(node=0, behaviour="meltdown")

    def test_censor_requires_buckets(self):
        with pytest.raises(ValueError):
            ByzantineSpec(node=0, behaviour=BYZ_CENSOR)

    def test_replay_requires_factor(self):
        with pytest.raises(ValueError):
            ByzantineSpec(node=0, behaviour=BYZ_REPLAY, replay_factor=1)

    def test_make_adversary_types(self):
        assert isinstance(make_adversary(ByzantineSpec(node=1)), EquivocationAdversary)
        assert isinstance(
            make_adversary(ByzantineSpec(node=1, behaviour=BYZ_INVALID_VOTES)),
            InvalidVoteAdversary,
        )
        assert isinstance(
            make_adversary(ByzantineSpec(node=1, behaviour=BYZ_REPLAY)),
            ReplayAdversary,
        )
        # Censorship is node behaviour, not a send hook.
        assert make_adversary(
            ByzantineSpec(node=1, behaviour=BYZ_CENSOR, buckets=(0,))
        ) is None


class TestEquivocation:
    @pytest.mark.parametrize("flush_interval", [0.0, 0.02], ids=["unbatched", "batched"])
    def test_pbft_safety_detection_eviction(self, flush_interval):
        """Equivocating leader: identical prefixes, ⊥ slots, detection,
        Blacklist eviction — with wire batching off and on."""
        specs = byzantine_leaders(1, 4, behaviour=BYZ_EQUIVOCATE)
        deployment, result = run_adversarial(
            small_config(), specs, batch_flush_interval=flush_interval
        )
        report = result.report
        correct = honest_nodes(result, specs)
        assert check_prefix_identity(correct) == []
        assert report.completed > 0
        # The adversary actually attacked...
        assert deployment.injector.adversary_for(3).equivocations_sent > 0
        # ...the attacked slots stalled into ⊥ and were attributed...
        assert all(node.nil_committed > 0 for node in correct)
        # ...every correct node proved the equivocation from f+1 votes...
        for node in correct:
            assert node.equivocations_detected > 0
        # ...and the Blacklist policy rotated the adversary out.
        sample = correct[0]
        assert 3 not in sample.manager.leaders_for(sample.current_epoch)

    def test_hotstuff_safety_and_eviction(self):
        specs = byzantine_leaders(1, 4, behaviour=BYZ_EQUIVOCATE)
        deployment, result = run_adversarial(
            small_config("hotstuff"), specs, duration=12.0, drain_time=12.0
        )
        correct = honest_nodes(result, specs)
        assert check_prefix_identity(correct) == []
        assert result.report.completed > 0
        assert all(node.nil_committed > 0 for node in correct)
        sample = correct[0]
        assert 3 not in sample.manager.leaders_for(sample.current_epoch)

    def test_f_adversaries_at_seven_nodes(self):
        """f = 2 equivocating leaders out of n = 7: still safe, still live."""
        specs = byzantine_leaders(2, 7, behaviour=BYZ_EQUIVOCATE)
        deployment, result = run_adversarial(
            small_config(num_nodes=7), specs, duration=12.0, drain_time=12.0
        )
        correct = honest_nodes(result, specs)
        assert len(correct) == 5
        assert check_prefix_identity(correct) == []
        assert result.report.completed > 0

    def test_delayed_start(self):
        """An adversary that turns Byzantine mid-run is installed on time."""
        spec = ByzantineSpec(node=3, behaviour=BYZ_EQUIVOCATE, start_time=6.0)
        deployment, result = run_adversarial(small_config(), [spec])
        adversary = deployment.injector.adversary_for(3)
        assert adversary is not None and adversary.equivocations_sent > 0
        assert check_prefix_identity(honest_nodes(result, [spec])) == []


class TestCensorship:
    def test_censored_buckets_eventually_delivered(self):
        """Bucket rotation delivers everything a censoring leader drops."""
        config = small_config()
        buckets = censorship_targets(config.num_buckets, 4)
        specs = byzantine_leaders(1, 4, behaviour=BYZ_CENSOR, buckets=buckets)
        deployment, result = run_adversarial(
            config, specs, duration=10.0, drain_time=20.0
        )
        censored = result.collector.censored()
        assert censored["buckets"] == sorted(buckets)
        assert censored["submitted"] > 0
        # Every censored request completed once its bucket rotated to an
        # honest leader (the generous drain covers the rotation lag).
        assert censored["completed"] == censored["submitted"]
        assert censored["latency"].count == censored["completed"]
        assert check_prefix_identity(honest_nodes(result, specs)) == []
        # The adversary's own queues hold no hostage requests at the end.
        for node in honest_nodes(result, specs):
            assert node.buckets.pending_in(buckets) == 0

    def test_censor_start_time_is_honoured(self):
        """A censor spec with a future start_time censors nothing: the run
        is bit-identical (deliveries and traffic) to a clean one."""
        config = small_config()
        buckets = censorship_targets(config.num_buckets, 4)
        specs = [
            ByzantineSpec(
                node=3, behaviour=BYZ_CENSOR, start_time=1e9, buckets=tuple(buckets)
            )
        ]
        armed_dep, armed = run_adversarial(small_config(), specs)
        clean_dep, clean = run_adversarial(small_config(), [])
        assert armed.report.completed == clean.report.completed
        assert (
            armed_dep.network.stats.messages_sent
            == clean_dep.network.stats.messages_sent
        )
        censored = armed.collector.censored()
        assert censored["completed"] == censored["submitted"]

    @pytest.mark.parametrize("behaviour", [BYZ_CENSOR, BYZ_REPLAY])
    def test_raft_survives_in_model_behaviours(self, behaviour):
        """Raft (CFT) paired only with behaviours inside its fault model."""
        config = small_config("raft")
        buckets = (
            censorship_targets(config.num_buckets, 4)
            if behaviour == BYZ_CENSOR
            else ()
        )
        specs = byzantine_leaders(1, 4, behaviour=behaviour, buckets=buckets)
        deployment, result = run_adversarial(
            config, specs, duration=10.0, drain_time=15.0
        )
        correct = honest_nodes(result, specs)
        assert check_prefix_identity(correct) == []
        assert result.report.completed > 0
        if behaviour == BYZ_CENSOR:
            censored = result.collector.censored()
            assert censored["completed"] == censored["submitted"] > 0

    def test_censorship_rotation_scenario(self):
        row = censorship_rotation(num_nodes=4, rate=300.0, duration=8.0)
        assert row["prefixes_identical"]
        assert row["censored_submitted"] > 0
        assert row["censored_completion_ratio"] >= 0.95


class TestInvalidVotes:
    def test_forged_votes_rejected_and_counted(self):
        specs = byzantine_leaders(1, 4, behaviour=BYZ_INVALID_VOTES)
        deployment, result = run_adversarial(small_config(), specs)
        report = result.report
        correct = honest_nodes(result, specs)
        assert check_prefix_identity(correct) == []
        assert report.completed > 0
        assert deployment.injector.adversary_for(3).votes_forged > 0
        # Forged checkpoint signatures are rejected (and counted) at every
        # correct node; epochs still stabilise on the honest 2f+1.
        for node in correct:
            assert node.invalid_signatures_rejected() > 0
            assert node.epochs_completed > 0

    def test_hotstuff_rejects_forged_partials(self):
        specs = byzantine_leaders(1, 4, behaviour=BYZ_INVALID_VOTES)
        deployment, result = run_adversarial(
            small_config("hotstuff"), specs, duration=10.0, drain_time=12.0
        )
        correct = honest_nodes(result, specs)
        assert check_prefix_identity(correct) == []
        assert result.report.completed > 0
        assert sum(node.invalid_votes_rejected for node in correct) > 0


class TestReplayFlooding:
    @pytest.mark.parametrize("flush_interval", [0.0, 0.02], ids=["unbatched", "batched"])
    def test_duplicates_absorbed(self, flush_interval):
        specs = byzantine_leaders(1, 4, behaviour=BYZ_REPLAY, replay_factor=3)
        deployment, result = run_adversarial(
            small_config(), specs, batch_flush_interval=flush_interval
        )
        report = result.report
        adversary = deployment.injector.adversary_for(3)
        assert adversary.duplicates_sent > 0
        correct = honest_nodes(result, specs)
        assert check_prefix_identity(correct) == []
        assert report.completed > 0
        # Idempotence: no request is ever delivered twice at any node.
        for node in correct:
            delivered = [
                node.log.entry(sn)
                for sn in range(node.log.first_undelivered)
            ]
            rids = [
                request.rid
                for entry in delivered
                if isinstance(entry, Batch)
                for request in entry.requests
            ]
            assert len(rids) == len(set(rids))

    def test_replay_matches_clean_delivery(self):
        """Flooding changes traffic, never what correct nodes deliver."""
        clean_dep, clean = run_adversarial(small_config(), [])
        specs = byzantine_leaders(1, 4, behaviour=BYZ_REPLAY, replay_factor=4)
        noisy_dep, noisy = run_adversarial(small_config(), specs)
        assert noisy_dep.network.stats.messages_sent > clean_dep.network.stats.messages_sent
        assert noisy.report.completed == clean.report.completed


class TestAdversaryCrashInterplay:
    @pytest.mark.parametrize("flush_interval", [0.0, 0.02], ids=["unbatched", "batched"])
    def test_byzantine_leader_plus_correct_node_restart(self, flush_interval):
        """A correct node crash/restarts while another node equivocates.

        The recovered node must catch up through state transfer and agree
        with every other correct node despite the adversary staying active
        the whole time — the crash-recovery and adversary machineries must
        compose.
        """
        specs = byzantine_leaders(1, 4, behaviour=BYZ_EQUIVOCATE)
        deployment, result = run_adversarial(
            small_config(seed=11),
            specs,
            duration=20.0,
            drain_time=12.0,
            batch_flush_interval=flush_interval,
            other_faults=[
                CrashSpec(node=1, trigger="at-time", time=4.0),
                RestartSpec(node=1, time=12.0),
            ],
        )
        report = result.report
        assert report.recoveries, "the restarted node must produce a recovery record"
        assert report.recoveries[0]["time_to_caught_up"] >= 0.0
        correct = honest_nodes(result, specs)
        assert len(correct) == 3  # restarted node counts as correct again
        assert check_prefix_identity(correct) == []
        restarted = result.nodes[1]
        assert restarted.delivered_count() > 0
        assert report.completed > 0

    def test_byzantine_node_crash_then_restart_stays_byzantine(self):
        """An adversary that crashes and comes back keeps its send hook."""
        specs = byzantine_leaders(1, 4, behaviour=BYZ_EQUIVOCATE)
        deployment, result = run_adversarial(
            small_config(seed=11),
            specs,
            duration=18.0,
            drain_time=10.0,
            other_faults=[
                CrashSpec(node=3, trigger="at-time", time=5.0),
                RestartSpec(node=3, time=9.0),
            ],
        )
        assert deployment.injector.adversary_for(3) is not None
        correct = honest_nodes(result, specs)
        assert check_prefix_identity(correct) == []
        assert result.report.completed > 0


class TestByzantineSmokeGolden:
    def test_golden_trace_file_is_well_formed(self):
        golden = json.loads(GATES["byzantine"].golden_path.read_text())
        assert golden["trace_len"] > 0
        assert len(golden["trace_sha256"]) == 64
        assert golden["equivocations_detected_total"] > 0
