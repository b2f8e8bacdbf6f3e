"""Unit tests for configuration objects and Table 1 defaults."""

import pytest

from repro.core.config import (
    ConfigError,
    ISSConfig,
    NetworkConfig,
    SimConfig,
    WorkloadConfig,
    paper_config,
    PROTOCOL_HOTSTUFF,
    PROTOCOL_PBFT,
    PROTOCOL_RAFT,
    SUPPORTED_PROTOCOLS,
)


class TestISSConfig:
    def test_bft_fault_threshold(self):
        assert ISSConfig(num_nodes=4).max_faulty == 1
        assert ISSConfig(num_nodes=7).max_faulty == 2
        assert ISSConfig(num_nodes=128).max_faulty == 42

    def test_cft_fault_threshold(self):
        config = ISSConfig(num_nodes=5, protocol=PROTOCOL_RAFT, byzantine=False)
        assert config.max_faulty == 2

    def test_quorums(self):
        config = ISSConfig(num_nodes=7)
        assert config.strong_quorum == 5
        assert config.weak_quorum == 3

    def test_num_buckets_scales_with_nodes(self):
        config = ISSConfig(num_nodes=4, buckets_per_leader=16)
        assert config.num_buckets == 64

    def test_max_leaders_capped_by_segment_size(self):
        config = ISSConfig(num_nodes=32, epoch_length=32, min_segment_size=16)
        assert config.max_leaders() == 2

    def test_max_leaders_capped_by_node_count(self):
        config = ISSConfig(num_nodes=4, epoch_length=256, min_segment_size=2)
        assert config.max_leaders() == 4

    def test_invalid_protocol_rejected(self):
        with pytest.raises(ConfigError):
            ISSConfig(num_nodes=4, protocol="paxos")

    def test_raft_must_be_cft(self):
        with pytest.raises(ConfigError):
            ISSConfig(num_nodes=4, protocol=PROTOCOL_RAFT, byzantine=True)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigError):
            ISSConfig(num_nodes=4, leader_policy="random")

    def test_invalid_epoch_length_rejected(self):
        with pytest.raises(ConfigError):
            ISSConfig(num_nodes=4, epoch_length=0)

    def test_negative_batch_rate_rejected(self):
        with pytest.raises(ConfigError):
            ISSConfig(num_nodes=4, batch_rate=-1.0)

    def test_with_updates_revalidates(self):
        config = ISSConfig(num_nodes=4)
        updated = config.with_updates(num_nodes=7)
        assert updated.num_nodes == 7
        with pytest.raises(ConfigError):
            config.with_updates(epoch_length=-1)


class TestPaperConfig:
    def test_pbft_matches_table1(self):
        config = paper_config(PROTOCOL_PBFT, 32)
        assert config.max_batch_size == 2048
        assert config.batch_rate == 32.0
        assert config.epoch_length == 256
        assert config.min_segment_size == 2
        assert config.buckets_per_leader == 16
        assert config.epoch_change_timeout == 10.0
        assert config.client_signatures is True

    def test_hotstuff_matches_table1(self):
        config = paper_config(PROTOCOL_HOTSTUFF, 32)
        assert config.max_batch_size == 4096
        assert config.batch_rate is None
        assert config.min_batch_timeout == 1.0
        assert config.min_segment_size == 16

    def test_raft_matches_table1(self):
        config = paper_config(PROTOCOL_RAFT, 32)
        assert config.max_batch_size == 4096
        assert config.batch_rate == 32.0
        assert config.client_signatures is False
        assert config.byzantine is False

    def test_overrides_win(self):
        config = paper_config(PROTOCOL_PBFT, 8, epoch_length=64)
        assert config.epoch_length == 64

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            paper_config("zab", 4)

    def test_sb_from_consensus_is_not_a_protocol(self):
        import repro

        assert SUPPORTED_PROTOCOLS == (PROTOCOL_PBFT, PROTOCOL_HOTSTUFF, PROTOCOL_RAFT)
        with pytest.raises(ConfigError):
            ISSConfig(num_nodes=4, protocol="consensus")
        with pytest.raises(ConfigError):
            paper_config("consensus", 4)
        with pytest.raises(AttributeError):
            repro.PROTOCOL_CONSENSUS


class TestOtherConfigs:
    def test_network_config_validation(self):
        NetworkConfig().validate()
        with pytest.raises(ConfigError):
            NetworkConfig(bandwidth_bps=0).validate()
        with pytest.raises(ConfigError):
            NetworkConfig(drop_rate=1.5).validate()

    def test_workload_config_validation(self):
        WorkloadConfig().validate()
        with pytest.raises(ConfigError):
            WorkloadConfig(total_rate=0).validate()
        with pytest.raises(ConfigError):
            WorkloadConfig(duration=0).validate()
        with pytest.raises(ConfigError):
            WorkloadConfig(num_clients=0).validate()

    def test_sim_config_accepts_only_the_single_engine(self):
        assert SimConfig() == SimConfig(engine="single")
        with pytest.raises(ConfigError, match="removed in PR 12"):
            SimConfig(engine="sharded")

    @pytest.mark.parametrize(
        "name, legal, others",
        [
            ("view_change_jitter", 0.1, (0.0, 0.5, -0.1)),
            ("stalled_catchup_grace", 2.0, (0.0, 1.0, -1.0)),
            ("vc_recovery", True, (False,)),
            ("client_retry_backoff", 2.0, (1.0, 3.0, 0.5)),
            ("client_retry_jitter", 0.1, (0.0, 0.5, -0.1)),
        ],
    )
    def test_recovery_hardening_fields_accept_only_their_value(self, name, legal, others):
        assert getattr(ISSConfig(), name) == legal
        assert getattr(ISSConfig(**{name: legal}), name) == legal
        for value in others:
            with pytest.raises(ConfigError, match=name):
                ISSConfig(**{name: value})
            with pytest.raises(ConfigError, match=name):
                ISSConfig().with_updates(**{name: value})

    def test_engine_env_var_is_no_longer_read(self, monkeypatch):
        from repro.harness.runner import Deployment
        from repro.sim.simulator import Simulator

        monkeypatch.setenv("REPRO_ENGINE", "sharded")
        deployment = Deployment(
            config=ISSConfig(num_nodes=4, random_seed=1),
            workload=WorkloadConfig(num_clients=2, total_rate=50.0, duration=1.0),
        )
        assert type(deployment.sim) is Simulator
