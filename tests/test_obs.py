"""Observability subsystem tests (tracer, spans, sampler, exporters).

Three contracts are pinned here:

1. **Disabled mode is invisible** — with the obs package imported and the
   ``REPRO_TRACE*`` environment unset, the canonical golden trace replays
   bit-identically, and enabling full tracing does not move the schedule
   (same completions, same delivered-trace digest, same wire traffic).
2. **Spans are complete** — on a seeded scenario every completed request
   closes a monotone submit→admit→propose→commit→deliver→complete chain.
3. **Exports are valid** — the Chrome trace-event file passes the schema
   validator (and the validator actually rejects malformed traces), and
   ``spans.jsonl`` round-trips losslessly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import ISSConfig, WorkloadConfig
from repro.harness.invariants import trace_sha256
from repro.harness.runner import Deployment
from repro.obs import ObsConfig
from repro.obs.export import (
    CHROME_TRACE_FILE,
    METRICS_FILE,
    SPANS_FILE,
    chrome_trace,
    read_jsonl,
    validate_chrome_trace,
    write_run_artifacts,
)
from repro.obs.spans import CHAIN_FIELDS, assemble_spans, chain_violation
from repro.obs.tracer import RequestTracer

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.json"

ENV_VARS = (
    "REPRO_TRACE",
    "REPRO_TRACE_SAMPLE",
    "REPRO_TRACE_METRICS_INTERVAL",
    "REPRO_TRACE_DIR",
)

FULL_OBS = ObsConfig(trace=True, sample=1.0, metrics_interval=1.0)


def _run(obs, sample=None):
    """Seeded 4-node scenario; ``obs`` may be None (environment path)."""
    if sample is not None:
        obs = ObsConfig(trace=True, sample=sample, metrics_interval=obs.metrics_interval)
    config = ISSConfig(num_nodes=4, random_seed=21)
    workload = WorkloadConfig(num_clients=6, total_rate=250.0, duration=3.0)
    deployment = Deployment(
        config=config,
        workload=workload,
        obs=obs,
    )
    result = deployment.run()
    return deployment, result


@pytest.fixture(scope="module")
def traced_run():
    """One fully traced run shared by the span/export/sampler tests."""
    deployment, result = _run(FULL_OBS)
    rows = assemble_spans(deployment.tracer.events)
    return deployment, result, rows


class TestDisabledMode:
    """Observability must be invisible unless explicitly enabled."""

    def test_env_defaults_replay_golden_trace(self, monkeypatch):
        """With REPRO_TRACE* unset, the environment path is the disabled
        config and the pinned golden trace replays bit-identically even
        though the obs package is imported and wired into the harness."""
        for var in ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        assert ObsConfig.from_env() == ObsConfig.disabled()

        pinned = json.loads(GOLDEN_PATH.read_text())
        scenario = pinned["scenario"]
        config = ISSConfig(
            num_nodes=scenario["num_nodes"],
            random_seed=scenario["random_seed"],
            send_client_responses=scenario["send_client_responses"],
        )
        workload = WorkloadConfig(
            num_clients=scenario["num_clients"],
            total_rate=scenario["total_rate"],
            duration=scenario["duration"],
            random_seed=scenario["workload_seed"],
        )
        deployment = Deployment(config=config, workload=workload)
        assert deployment.tracer is None
        assert deployment.sampler is None

        trace = []

        def record(node_id, item):
            trace.append(
                (
                    node_id,
                    item.sn,
                    item.batch_sn,
                    item.request.rid.client,
                    item.request.rid.timestamp,
                    round(item.delivered_at, 9),
                )
            )

        for node in deployment.nodes:
            node.on_deliver = record
        for node in deployment.nodes:
            node.start()
        deployment.generator.start()
        deployment.sim.run(until=workload.duration + deployment.drain_time)

        digest = hashlib.sha256(repr(trace).encode()).hexdigest()
        assert digest == pinned["trace_sha256"]
        assert deployment.sim.events_executed == pinned["events_executed"]
        assert deployment.network.stats.messages_sent == pinned["messages_sent"]

    def test_tracing_does_not_move_the_schedule(self, traced_run):
        """Full tracing + sampler: same completions, same delivered order,
        same wire traffic as the untraced run (the sampler's own ticks are
        the only extra simulator events)."""
        off_dep, off_res = _run(ObsConfig.disabled())
        on_dep, on_res, _rows = traced_run
        assert on_res.report.completed == off_res.report.completed
        assert on_res.report.latency == off_res.report.latency
        for traced, untraced in zip(on_res.nodes, off_res.nodes):
            assert trace_sha256(traced) == trace_sha256(untraced)
        assert (
            on_dep.network.stats.messages_sent == off_dep.network.stats.messages_sent
        )

    def test_env_opt_in(self, monkeypatch):
        for var in ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("REPRO_TRACE", "yes")
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.25")
        monkeypatch.setenv("REPRO_TRACE_METRICS_INTERVAL", "2.5")
        config = ObsConfig.from_env()
        assert config.trace and config.enabled
        assert config.sample == 0.25
        assert config.metrics_interval == 2.5
        assert config.out_dir is None


class TestSpanCompleteness:
    def test_every_completed_request_closes_its_chain(self, traced_run):
        _dep, result, rows = traced_run
        completed = [r for r in rows if r["complete"] is not None]
        assert len(completed) == result.report.completed > 0
        violations = [v for v in map(chain_violation, completed) if v is not None]
        assert violations == []
        # Delivery is recorded per node: a completed request was delivered
        # on every correct node in this fault-free scenario.
        assert all(r["deliver_nodes"] == 4 for r in completed)
        # Rows come out in first-submit order.
        submits = [r["submit"] for r in rows]
        assert submits == sorted(submits)

    def test_sampling_is_deterministic_subset(self):
        full_dep, _ = _run(FULL_OBS)
        all_rids = {r["rid"] for r in assemble_spans(full_dep.tracer.events)}
        dep_a, _ = _run(FULL_OBS, sample=0.3)
        dep_b, _ = _run(FULL_OBS, sample=0.3)
        rows_a = assemble_spans(dep_a.tracer.events)
        # Same seed + same sample rate: the sampled trace is reproducible.
        assert rows_a == assemble_spans(dep_b.tracer.events)
        sampled_rids = {r["rid"] for r in rows_a}
        assert 0 < len(sampled_rids) < len(all_rids)
        assert sampled_rids <= all_rids
        # Sampling must not perturb the schedule either.
        assert trace_sha256(dep_a.nodes[0]) == trace_sha256(
            full_dep.nodes[0]
        )

    def test_chain_violation_reports_gaps_and_inversions(self):
        row = {name: float(i) for i, name in enumerate(CHAIN_FIELDS)}
        assert chain_violation(row) is None
        row["commit"] = None
        assert chain_violation(row) == "missing commit"
        row["commit"] = 10.0
        assert "precedes" in chain_violation(row)


class TestExporters:
    def test_chrome_trace_is_schema_valid(self, traced_run):
        dep, _res, rows = traced_run
        trace = chrome_trace(rows, dep.tracer.events)
        assert validate_chrome_trace(trace) == []
        assert trace["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert {"M", "X"} <= phases

    def test_validator_rejects_malformed_traces(self, traced_run):
        dep, _res, rows = traced_run
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": {}}) != []
        trace = chrome_trace(rows, dep.tracer.events)
        del trace["traceEvents"][-1]["ph"]
        assert validate_chrome_trace(trace) != []

    def test_artifacts_round_trip(self, traced_run, tmp_path):
        dep, res, rows = traced_run
        write_run_artifacts(
            tmp_path, dep.tracer, timeseries=res.report.timeseries
        )
        assert read_jsonl(tmp_path / SPANS_FILE) == rows
        chrome = json.loads((tmp_path / CHROME_TRACE_FILE).read_text())
        assert validate_chrome_trace(chrome) == []
        metrics = json.loads((tmp_path / METRICS_FILE).read_text())
        assert metrics["timeseries"] == res.report.timeseries


class TestSamplerTimeseries:
    def test_timeseries_shape_and_counters(self, traced_run):
        _dep, result, _rows = traced_run
        timeseries = result.report.timeseries
        assert timeseries["interval"] == 1.0
        times = timeseries["times"]
        assert times == sorted(times) and len(times) > 0
        series = timeseries["series"]
        assert "throughput" in series
        assert "retransmissions" in series
        assert any(name.startswith("drops.") for name in series)
        assert all(len(values) == len(times) for values in series.values())
        # The timeline (duration-limited view of the throughput series)
        # accounts for completions inside the measured window.
        timeline = result.report.throughput_timeline
        assert timeline and all(t <= 3.0 + 1e-9 for t, _rate in timeline)
        assert sum(rate * 1.0 for _t, rate in timeline) <= result.report.completed

    def test_tracer_only_run_has_no_timeseries(self):
        deployment, result = _run(ObsConfig(trace=True, sample=1.0, metrics_interval=0.0))
        assert deployment.sampler is None
        assert result.report.timeseries == {}
        assert result.report.throughput_timeline == []
        assert deployment.tracer is not None and deployment.tracer.events

    def test_tracer_sampling_unit(self):
        tracer = RequestTracer(sample=0.0)
        assert tracer.events == []
        dep, _ = _run(FULL_OBS, sample=0.0)
        # sample=0 traces nothing request-scoped; slot-scoped events remain.
        rows = assemble_spans(dep.tracer.events)
        assert rows == []
