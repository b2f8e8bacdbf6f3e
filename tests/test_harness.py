"""Tests for the experiment harness (Deployment, runner helpers, scenarios)."""

import pytest

from repro.baselines.single_leader import single_leader_policy
from repro.core.config import ISSConfig, NetworkConfig, WorkloadConfig
from repro.harness import scenarios
from repro.harness.invariants import check_invariants
from repro.harness.runner import Deployment
from repro.metrics.collector import RunReport
from repro.runtime.faults import (
    BYZ_EQUIVOCATE,
    CLIENT_DUPLICATE_FLOOD,
    ByzantineSpec,
    CrashSpec,
    MaliciousClientSpec,
    RestartSpec,
)
from repro.workload.faults import minority_partition


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

    def test_a_request_submitted_directly_reaches_the_metrics(self):
        """A client's own ``submit`` reports the submit time, so a request
        that bypasses the workload generator is counted and timed."""
        deployment = Deployment(tiny_config(), workload=tiny_workload(total_rate=2.0))
        direct = []

        def submit():
            direct.append(deployment.clients[0].submit(b"direct"))

        for delay in (0.5, 1.0, 1.5):
            deployment.sim.schedule(delay, submit)
        report = deployment.run().report
        assert report.submitted == deployment.generator.submitted + len(direct)
        assert report.completed == report.submitted

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

    def test_network_config_respected(self):
        network = NetworkConfig(bandwidth_bps=5e6)
        deployment = Deployment(tiny_config(), network_config=network, workload=tiny_workload())
        assert deployment.network.config.bandwidth_bps == 5e6


class TestFindPeakThroughput:
    def test_reports_best_point(self, monkeypatch):
        """``scenarios.scalability_peak`` runs every offered load and keeps
        the first load reaching the highest throughput (saturation at 300)."""

        class Run:
            def __init__(self, rate):
                self.rate = rate

            def run(self):
                return None

        offered = []

        def deployment(protocol, num_nodes, rate, duration, **system):
            offered.append(rate)
            return Run(rate)

        def row(run, result):
            return {"throughput": min(run.rate, 300.0), "latency_mean": run.rate / 1e3}

        monkeypatch.setattr(scenarios, "deployment", deployment)
        monkeypatch.setattr(scenarios, "row", row)
        result = scenarios.scalability_peak(
            "iss", "pbft", 4, offered_loads=[100.0, 200.0, 400.0, 800.0]
        )
        assert offered == [100.0, 200.0, 400.0, 800.0]
        assert result["peak_throughput"] == 300.0
        assert result["at_offered_load"] == 400.0
        assert result["latency_at_peak"] == 0.4


class TestScenarioHelpers:
    def test_iss_config_protocol_specific_defaults(self):
        pbft = scenarios.iss_config("pbft", 4)
        hotstuff = scenarios.iss_config("hotstuff", 4)
        raft = scenarios.iss_config("raft", 4)
        assert pbft.batch_rate is not None
        assert hotstuff.batch_rate is None
        assert raft.byzantine is False and raft.client_signatures is False

    def test_baseline_config_single_leader(self):
        """The ``"single"`` system: no deployment-wide batch rate, one
        segment (so no minimum size), and the fixed-leader policy."""
        deployment = scenarios.deployment(
            "pbft", 8, rate=100.0, duration=1.0, **scenarios.SYSTEMS["single"]
        )
        assert deployment.config.batch_rate is None
        assert deployment.config.min_segment_size == 1
        assert deployment.policy_factory is single_leader_policy

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
        assert scenarios.DEFAULT_MEMBERSHIP_EPOCH_LENGTH == 16
        deployment = Deployment(tiny_config(), workload=tiny_workload())
        assert deployment.recovery_poll == 0.25
        assert deployment.probe_stagger == 2.0
        assert deployment.nodes[0].state_transfer.probe_stagger == 2.0

        def default(function, parameter):
            return inspect.signature(function).parameters[parameter].default

        assert default(scenarios.client_abuse_sweep, "abusive_counts") == (0, 1, 2)
        assert scenarios.FLAP_PERIODS == (1.0, 2.0, 4.0)
        assert scenarios.MEMBERSHIP_PERIOD == 6.0

    def test_scalability_point_runs_quickly(self):
        row = scenarios.scalability_peak("iss", "pbft", 4, offered_loads=(200.0,), duration=3.0)
        assert row["system"] == "iss" and row["nodes"] == 4
        assert row["peak_throughput"] > 0

    def test_scalability_point_single_leader(self):
        row = scenarios.scalability_peak("single", "pbft", 4, offered_loads=(200.0,), duration=3.0)
        assert row["system"] == "single"
        assert row["peak_throughput"] > 0

    def test_scalability_point_rejects_unknown_system(self):
        with pytest.raises(ValueError):
            scenarios.scalability_peak("quorum", "pbft", 4, offered_loads=(100.0,))

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


class TestScenarioRow:
    def test_row_carries_one_section_per_fault_kind(self):
        """One run mixing a restart, an equivocating replica, a duplicate
        flooder and a minority partition: the row carries all four sections,
        and its correct-client and correct-node figures leave the adversaries
        out."""
        faults = [
            CrashSpec(node=1, trigger="at-time", time=2.0),
            RestartSpec(node=1, time=4.0),
            ByzantineSpec(node=3, behaviour=BYZ_EQUIVOCATE),
            MaliciousClientSpec(client=7, behaviour=CLIENT_DUPLICATE_FLOOD),
            *minority_partition(1, 4, 6.0, 8.0),
        ]
        deployment = scenarios.deployment(
            "pbft", 4, faults, rate=200.0, duration=10.0, drain_time=15.0,
            **scenarios.GRACEFUL,
        )
        result = deployment.run()
        row = scenarios.row(deployment, result)
        assert check_invariants(result) == []
        # recoveries
        assert [r["node"] for r in row["recoveries"]] == [1.0]
        assert row["caught_up"]
        # byzantine
        assert (row["byz_behaviour"], row["adversaries"]) == (BYZ_EQUIVOCATE, 1)
        # client abuse
        assert (row["client_behaviour"], row["abusive"]) == (CLIENT_DUPLICATE_FLOOD, 1)
        assert row["abuse_contained"]
        # partitions
        assert len(row["partition_records"]) == 1
        assert "final_view" not in row  # no membership section: no reconfiguration
        # Correct clients only: the flooder's submissions are not counted.
        correct = [c for c in result.clients if c.client_id != 7]
        assert row["submitted"] == sum(c.requests_submitted for c in correct)
        assert row["submitted"] < sum(c.requests_submitted for c in result.clients)
        assert row["all_complete"]
        # Correct live nodes only: detection is summed over nodes 0-2.
        per_node = result.report.byzantine["per_node"]
        assert row["equivocations_detected"] == sum(
            per_node[n]["equivocations_detected"] for n in (0, 1, 2)
        )
        assert row["prefixes_identical"]

    def test_fault_free_row_has_only_the_common_figures(self):
        """No fault, no section; the client figures need client responses."""
        common = {
            "protocol", "nodes", "throughput", "latency_mean", "latency_p95",
            "prefixes_identical",
        }
        silent = scenarios.deployment("pbft", 4, rate=100.0, duration=2.0)
        row = scenarios.row(silent, silent.run())
        assert set(row) == common and row["throughput"] > 0
        answered = scenarios.deployment(
            "pbft", 4, rate=100.0, duration=2.0, send_client_responses=True
        )
        row = scenarios.row(answered, answered.run())
        assert set(row) == common | {"submitted", "completed", "all_complete"}
        assert row["completed"] == row["submitted"] > 0 and row["all_complete"]
