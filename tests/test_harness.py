"""Tests for the experiment harness (Deployment, runner helpers, scenarios)."""

import pytest

from repro.core.config import ISSConfig, NetworkConfig, WorkloadConfig
from repro.harness import scenarios
from repro.harness.runner import Deployment, find_peak_throughput, run_experiment
from repro.metrics.collector import RunReport


def tiny_config(**overrides):
    defaults = dict(
        num_nodes=4,
        protocol="pbft",
        epoch_length=8,
        max_batch_size=16,
        batch_rate=8.0,
        max_batch_timeout=0.5,
        view_change_timeout=3.0,
        epoch_change_timeout=3.0,
    )
    defaults.update(overrides)
    return ISSConfig(**defaults)


def tiny_workload(**overrides):
    defaults = dict(num_clients=2, total_rate=100.0, duration=4.0, payload_size=64)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestDeployment:
    def test_run_returns_report_and_objects(self):
        result = Deployment(tiny_config(), workload=tiny_workload()).run()
        assert isinstance(result.report, RunReport)
        assert len(result.nodes) == 4
        assert len(result.clients) == 2
        assert result.report.completed > 0

    def test_extra_stats_present(self):
        report = Deployment(tiny_config(), workload=tiny_workload()).run().report
        for key in ("messages_sent", "bytes_sent", "epochs_completed", "sim_events"):
            assert key in report.extra

    def test_deterministic_given_seed(self):
        a = Deployment(tiny_config(), workload=tiny_workload()).run().report
        b = Deployment(tiny_config(), workload=tiny_workload()).run().report
        assert a.completed == b.completed
        assert a.latency.mean == pytest.approx(b.latency.mean)

    def test_different_workload_seed_changes_arrivals(self):
        a = Deployment(tiny_config(), workload=tiny_workload(random_seed=1)).run().report
        b = Deployment(tiny_config(), workload=tiny_workload(random_seed=2)).run().report
        assert a.submitted != b.submitted or a.extra["sim_events"] != b.extra["sim_events"]

    def test_run_experiment_wrapper(self):
        report = run_experiment(tiny_config(), tiny_workload())
        assert isinstance(report, RunReport)
        assert report.throughput > 0

    def test_network_config_respected(self):
        network = NetworkConfig(bandwidth_bps=5e6)
        deployment = Deployment(tiny_config(), network_config=network, workload=tiny_workload())
        assert deployment.network.config.bandwidth_bps == 5e6


class TestFindPeakThroughput:
    def test_reports_best_point(self):
        def fake_run(load):
            throughput = min(load, 300.0)
            return RunReport(
                duration=1.0, submitted=int(load), completed=int(throughput),
                throughput=throughput, latency=None,  # latency unused here
            )

        # Replace latency with a real summary to keep the dataclass honest.
        from repro.metrics.collector import LatencySummary

        def run(load):
            report = fake_run(load)
            report.latency = LatencySummary.from_samples([1.0])
            return report

        result = find_peak_throughput(run, offered_loads=[100.0, 200.0, 400.0, 800.0])
        assert result["peak_throughput"] == 300.0
        assert result["at_offered_load"] == 400.0
        assert len(result["points"]) == 4


class TestScenarioHelpers:
    def test_iss_config_protocol_specific_defaults(self):
        pbft = scenarios.iss_config("pbft", 4)
        hotstuff = scenarios.iss_config("hotstuff", 4)
        raft = scenarios.iss_config("raft", 4)
        assert pbft.batch_rate is not None
        assert hotstuff.batch_rate is None
        assert raft.byzantine is False and raft.client_signatures is False

    def test_baseline_config_single_leader(self):
        config = scenarios.baseline_config("pbft", 8)
        assert config.batch_rate is None
        assert config.min_segment_size == 1

    def test_bench_scale_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert scenarios.bench_scale() == 2.5
        monkeypatch.setenv("REPRO_BENCH_SCALE", "not-a-number")
        assert scenarios.bench_scale() == scenarios.DEFAULT_BENCH_SCALE
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        assert scenarios.bench_scale() == 0.25
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert scenarios.bench_scale() == scenarios.DEFAULT_BENCH_SCALE

    def test_scenario_shape_ignores_the_environment(self, monkeypatch):
        """The nine ``REPRO_*`` knobs PR 13 deleted are no longer read: set
        to hostile values, every scenario still carries the constants."""
        import inspect

        for name, value in {
            "REPRO_FLUSH_INTERVAL": "0",
            "REPRO_RECOVERY_POLL_INTERVAL": "9",
            "REPRO_PROBE_STAGGER": "0",
            "REPRO_ABUSE_CLIENTS": "7",
            "REPRO_FLAP_PERIODS": "9,9",
            "REPRO_PARTITION_DURATIONS": "9",
            "REPRO_MEMBERSHIP_EPOCH_LENGTH": "3",
            "REPRO_MEMBERSHIP_PERIOD": "99",
            "REPRO_FIG5_NODES": "4",
        }.items():
            monkeypatch.setenv(name, value)
        assert scenarios.scaled_network().batch_flush_interval == 0.02
        assert scenarios.wan_regions(2).batch_flush_interval == 0.02
        assert scenarios.membership_config("pbft", 4).epoch_length == 16
        deployment = Deployment(tiny_config(), workload=tiny_workload())
        assert deployment.recovery_poll == 0.25
        assert deployment.probe_stagger == 2.0
        assert deployment.nodes[0].state_transfer.probe_stagger == 2.0

        def default(function, parameter):
            return inspect.signature(function).parameters[parameter].default

        assert default(scenarios.client_abuse_sweep, "abusive_counts") == (0, 1, 2)
        assert default(scenarios.link_flap_sweep, "periods") == (1.0, 2.0, 4.0)
        assert default(scenarios.rolling_upgrade, "period") == 6.0

    def test_scalability_point_runs_quickly(self):
        row = scenarios.scalability_point("iss", "pbft", 4, offered_loads=(200.0,), duration=3.0)
        assert row["system"] == "iss" and row["nodes"] == 4
        assert row["peak_throughput"] > 0

    def test_scalability_point_single_leader(self):
        row = scenarios.scalability_point("single", "pbft", 4, offered_loads=(200.0,), duration=3.0)
        assert row["system"] == "single"
        assert row["peak_throughput"] > 0

    def test_scalability_point_rejects_unknown_system(self):
        with pytest.raises(ValueError):
            scenarios.scalability_point("quorum", "pbft", 4, offered_loads=(100.0,))

    def test_latency_throughput_sweep_rows(self):
        rows = scenarios.latency_throughput_sweep("pbft", 4, offered_loads=(100.0, 200.0), duration=3.0)
        assert len(rows) == 2
        assert rows[0]["offered_load"] == 100.0
        assert all(r["throughput"] > 0 for r in rows)

    def test_throughput_timeline_structure(self):
        result = scenarios.throughput_timeline(num_nodes=4, rate=150.0, duration=6.0)
        assert result["system"] == "iss"
        assert result["throughput"] > 0
        assert len(result["timeline"]) >= 5
