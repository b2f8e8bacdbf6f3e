"""Unit tests for leader-selection policies (Algorithm 4)."""

import pytest

from repro.core.config import ISSConfig, POLICY_BACKOFF, POLICY_BLACKLIST, POLICY_SIMPLE
from repro.core.leader_policy import (
    BackoffPolicy,
    BlacklistPolicy,
    FailureHistory,
    SimplePolicy,
    make_policy,
)
from repro.core.log import Log
from repro.core.types import NIL, SegmentDescriptor
from tests.conftest import make_batch, make_request


def history_with_failures(failures):
    """Build a FailureHistory where ``failures`` maps node -> (sn, epoch)."""
    history = FailureHistory()
    for node, (sn, epoch) in failures.items():
        segment = SegmentDescriptor(epoch=epoch, leader=node, seq_nrs=(sn,), buckets=())
        log = Log()
        log.commit(sn, NIL, epoch=epoch, now=0.0)
        history.record_epoch(epoch, [segment], log)
    return history


class TestFailureHistory:
    def test_records_nil_positions_per_leader(self):
        log = Log()
        log.commit(0, make_batch(make_request()), epoch=0, now=0.0)
        log.commit(1, NIL, epoch=0, now=0.0)
        segments = [
            SegmentDescriptor(epoch=0, leader=0, seq_nrs=(0,), buckets=()),
            SegmentDescriptor(epoch=0, leader=1, seq_nrs=(1,), buckets=()),
        ]
        history = FailureHistory()
        history.record_epoch(0, segments, log)
        assert history.last_failure(0) == -1
        assert history.last_failure(1) == 1
        assert history.failed_in_epoch(1, 0)
        assert not history.failed_in_epoch(0, 0)

    def test_keeps_highest_failure(self):
        history = history_with_failures({2: (5, 0)})
        log = Log()
        log.commit(9, NIL, epoch=1, now=0.0)
        history.record_epoch(1, [SegmentDescriptor(epoch=1, leader=2, seq_nrs=(9,), buckets=())], log)
        assert history.last_failure(2) == 9
        assert history.failed_in_epoch(2, 1)
        assert not history.failed_in_epoch(2, 0)


class TestSimplePolicy:
    def test_all_nodes_always_lead(self):
        policy = SimplePolicy(num_nodes=5, max_faulty=1)
        history = history_with_failures({0: (3, 0), 4: (1, 0)})
        for epoch in range(3):
            assert policy.leaders(epoch, history) == [0, 1, 2, 3, 4]

    def test_name(self):
        assert SimplePolicy(4, 1).name == POLICY_SIMPLE


class TestBlacklistPolicy:
    def test_excludes_most_recent_offenders_up_to_f(self):
        policy = BlacklistPolicy(num_nodes=7, max_faulty=2)
        history = history_with_failures({1: (5, 0), 3: (9, 0), 5: (2, 0)})
        leaders = policy.leaders(1, history)
        # The two highest failure positions (nodes 3 and 1) are excluded.
        assert 3 not in leaders
        assert 1 not in leaders
        assert 5 in leaders
        assert len(leaders) == 5

    def test_no_failures_means_everyone_leads(self):
        policy = BlacklistPolicy(num_nodes=4, max_faulty=1)
        assert policy.leaders(0, FailureHistory()) == [0, 1, 2, 3]

    def test_leaderset_never_below_two_thirds(self):
        """At least 2f+1 nodes always remain leaders."""
        policy = BlacklistPolicy(num_nodes=10, max_faulty=3)
        history = history_with_failures({n: (n, 0) for n in range(10)})
        leaders = policy.leaders(1, history)
        assert len(leaders) >= 7

    def test_crashed_node_stays_excluded(self):
        policy = BlacklistPolicy(num_nodes=4, max_faulty=1)
        history = history_with_failures({3: (7, 0)})
        for epoch in range(1, 6):
            assert 3 not in policy.leaders(epoch, history)


class TestBackoffPolicy:
    def test_ban_applied_after_failure(self):
        policy = BackoffPolicy(num_nodes=4, max_faulty=1, ban_period=2)
        history = history_with_failures({2: (6, 0)})
        policy.epoch_finished(0, history)
        assert 2 not in policy.leaders(1, history)
        assert policy.penalty_of(2) == 2

    def test_ban_decreases_linearly_when_behaving(self):
        policy = BackoffPolicy(num_nodes=4, max_faulty=1, ban_period=2)
        history = history_with_failures({2: (6, 0)})
        policy.epoch_finished(0, history)
        policy.epoch_finished(1, history)  # behaved in epoch 1
        policy.epoch_finished(2, history)
        assert policy.penalty_of(2) == 0
        assert 2 in policy.leaders(3, history)

    def test_ban_doubles_on_repeat_offense(self):
        policy = BackoffPolicy(num_nodes=4, max_faulty=1, ban_period=4)
        history = FailureHistory()
        log = Log()
        log.commit(0, NIL, epoch=0, now=0.0)
        seg = SegmentDescriptor(epoch=0, leader=1, seq_nrs=(0,), buckets=())
        history.record_epoch(0, [seg], log)
        policy.epoch_finished(0, history)
        assert policy.penalty_of(1) == 4
        log2 = Log()
        log2.commit(10, NIL, epoch=1, now=0.0)
        history.record_epoch(1, [SegmentDescriptor(epoch=1, leader=1, seq_nrs=(10,), buckets=())], log2)
        policy.epoch_finished(1, history)
        assert policy.penalty_of(1) == 7  # 4*2 - 1

    def test_falls_back_to_all_nodes_when_everyone_banned(self):
        policy = BackoffPolicy(num_nodes=2, max_faulty=0, ban_period=3)
        history = history_with_failures({0: (0, 0), 1: (1, 0)})
        policy.epoch_finished(0, history)
        assert policy.leaders(1, history) == [0, 1]


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,cls",
        [(POLICY_SIMPLE, SimplePolicy), (POLICY_BLACKLIST, BlacklistPolicy), (POLICY_BACKOFF, BackoffPolicy)],
    )
    def test_factory(self, name, cls):
        config = ISSConfig(num_nodes=4, leader_policy=name)
        assert isinstance(make_policy(config), cls)
