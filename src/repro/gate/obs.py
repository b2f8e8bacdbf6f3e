"""Tracing-overhead measurement of the ``obs`` gate (``python -m repro.gate obs``).

Runs the canonical 8-node profiling scenario
(:func:`repro.gate.simulated.perf_deployment`, unbatched) twice per
repetition — once with observability disabled and once with full-rate span
tracing plus a 1 s metrics sampler — and gates the claims of the
observability subsystem:

* **zero perturbation**: the traced run completes exactly the same requests
  and delivers exactly the same sequence (delivered-trace digest) as the
  untraced run — tracing observes the schedule, it must never move it,
* **complete spans**: every request that reached its client-response quorum
  has a closed span chain (submit → admit → propose → commit → deliver →
  complete, monotonically ordered) with zero violations,
* **valid export**: the artifacts round-trip through
  :func:`repro.obs.export.write_run_artifacts` — the re-read ``spans.jsonl``
  matches the in-memory spans and the Chrome trace-event file passes the
  schema validator (loadable in Perfetto / ``chrome://tracing``),
* **bounded overhead**: enabled mode stays within
  :data:`OVERHEAD_TOLERANCE` of disabled mode (min over
  :data:`REPETITIONS` interleaved repetitions; one retry absorbs a noisy
  machine).  The ratio is taken over process CPU time — on a loaded shared
  machine wall clock jitters by far more than the gated 10%, while CPU time
  isolates what the tracing hooks actually cost; wall time is still
  recorded alongside.
"""

from __future__ import annotations

import gc
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from ..harness.invariants import trace_sha256
from ..obs.config import ObsConfig
from ..obs.export import (
    CHROME_TRACE_FILE,
    SPANS_FILE,
    read_jsonl,
    validate_chrome_trace,
    write_run_artifacts,
)
from ..obs.spans import assemble_spans, chain_violation
from .simulated import PERF_SCENARIO, perf_deployment

#: Allowed enabled-mode CPU-time overhead (fraction of disabled mode).
OVERHEAD_TOLERANCE = 0.10

#: Interleaved (disabled, enabled) timing repetitions; the minimum of each
#: side is compared, which filters one-sided scheduler noise.
REPETITIONS = 3

#: The enabled-mode configuration under test: full-rate span tracing plus
#: the 1 s metrics sampler — the most expensive supported setting.
ENABLED_OBS = ObsConfig(trace=True, sample=1.0, metrics_interval=1.0)


def _timed_run(obs: ObsConfig):
    """Run the perf scenario under ``obs``; return (deployment, result, cpu, wall).

    Garbage from the *previous* run is collected before the timers start —
    otherwise a traced run's retained events get collected inside the next
    timed region and the measured "overhead" is mostly cross-run GC noise.
    The collector is then disabled inside the timed region (the ``timeit``
    convention, same as the Fig. 5 node-count sweep): the traced run allocates
    more, so with GC live it pays extra full-heap passes whose cost scales
    with whatever else the process has ever allocated (under ``--all`` this
    gate runs after eight others), not with the tracing hooks under test.
    """
    deployment = perf_deployment(0.0, obs=obs)
    gc.collect()
    gc.disable()
    try:
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        result = deployment.run()
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
    finally:
        gc.enable()
    return deployment, result, cpu, wall


def measure(disabled: ObsConfig, repetitions: int = REPETITIONS) -> Dict[str, object]:
    """Run the ``disabled``/:data:`ENABLED_OBS` pairs and collect the figures."""
    disabled_cpus: List[float] = []
    enabled_cpus: List[float] = []
    disabled_walls: List[float] = []
    enabled_walls: List[float] = []
    disabled_figs: Dict[str, object] = {}
    enabled_figs: Dict[str, object] = {}
    span_rows: List[Dict[str, object]] = []
    tracer = None
    timeseries: Dict[str, object] = {}
    for _ in range(repetitions):
        deployment, result, cpu, wall = _timed_run(disabled)
        disabled_cpus.append(cpu)
        disabled_walls.append(wall)
        disabled_figs = {
            "completed": result.report.completed,
            "trace_sha256": trace_sha256(result.nodes[0]),
            "events_executed": deployment.sim.events_executed,
        }
        deployment, result, cpu, wall = _timed_run(ENABLED_OBS)
        enabled_cpus.append(cpu)
        enabled_walls.append(wall)
        tracer = deployment.tracer
        span_rows = assemble_spans(tracer.events)
        timeseries = result.report.timeseries
        enabled_figs = {
            "completed": result.report.completed,
            "trace_sha256": trace_sha256(result.nodes[0]),
            "events_executed": deployment.sim.events_executed,
            "spans": len(span_rows),
            "timeline_points": len(result.report.throughput_timeline),
            "series": len(timeseries.get("series", {})),
        }

    completed_rows = [r for r in span_rows if r.get("complete") is not None]
    violations = [
        v for v in (chain_violation(r) for r in completed_rows) if v is not None
    ]

    # Artifact round-trip: write the traced run's artifacts to a scratch
    # directory (outside the timed region), re-read them, validate.
    with tempfile.TemporaryDirectory(prefix="obs_gate_") as scratch:
        write_run_artifacts(scratch, tracer, timeseries=timeseries)
        reread = read_jsonl(Path(scratch) / SPANS_FILE)
        chrome = json.loads((Path(scratch) / CHROME_TRACE_FILE).read_text())
    chrome_problems = validate_chrome_trace(chrome)

    disabled_cpu = min(disabled_cpus)
    enabled_cpu = min(enabled_cpus)
    disabled_figs["cpu_time_s"] = round(disabled_cpu, 4)
    disabled_figs["wall_time_s"] = round(min(disabled_walls), 4)
    enabled_figs["cpu_time_s"] = round(enabled_cpu, 4)
    enabled_figs["wall_time_s"] = round(min(enabled_walls), 4)
    return {
        "scenario": dict(PERF_SCENARIO),
        "repetitions": repetitions,
        "disabled": disabled_figs,
        "enabled": enabled_figs,
        "completed_spans": len(completed_rows),
        "span_chain_violations": len(violations),
        "span_violation_examples": violations[:3],
        "spans_roundtrip_identical": reread == span_rows,
        "chrome_events": len(chrome.get("traceEvents", ())),
        "chrome_problems": chrome_problems[:3],
        "overhead_ratio": round(enabled_cpu / disabled_cpu, 4)
        if disabled_cpu > 0
        else float("inf"),
        "overhead_tolerance": OVERHEAD_TOLERANCE,
    }


def _within_ceiling(figures: Dict[str, object]) -> bool:
    return figures["overhead_ratio"] <= 1.0 + OVERHEAD_TOLERANCE


def overhead_figures(obs: ObsConfig) -> Dict[str, object]:
    """The profiling scenario untraced (``obs``) vs fully traced, min of
    :data:`REPETITIONS` interleaved pairs.

    One fresh measurement absorbs a noisy machine: when the first exceeds
    the overhead ceiling it is discarded and the second one is judged — a
    genuine hot-path regression fails both times.
    """
    figures = measure(obs)
    if not _within_ceiling(figures):
        print(
            f"obs: enabled mode used {figures['overhead_ratio']:.3f}× the "
            f"disabled CPU time — retrying once",
            file=sys.stderr,
        )
        figures = measure(obs)
    return figures


#: The observability claims (ordered ``(predicate, message)`` pairs): the
#: deterministic ones first, the CPU-time overhead ceiling last.
CLAIMS = (
    (
        lambda f: f["enabled"]["completed"] == f["disabled"]["completed"]
        and f["enabled"]["trace_sha256"] == f["disabled"]["trace_sha256"],
        "OBSERVER EFFECT: the traced run completed {enabled[completed]} "
        "requests (digest {enabled[trace_sha256]:.12}…) but the untraced run "
        "{disabled[completed]} (digest {disabled[trace_sha256]:.12}…) — "
        "tracing moved the schedule",
    ),
    (
        lambda f: f["completed_spans"] == f["enabled"]["completed"],
        "SPAN COVERAGE REGRESSION: {enabled[completed]} requests completed "
        "but only {completed_spans} spans closed",
    ),
    (
        lambda f: not f["span_chain_violations"],
        "SPAN CHAIN REGRESSION: {span_chain_violations} completed request(s) "
        "have broken span chains, e.g. {span_violation_examples}",
    ),
    (
        lambda f: f["spans_roundtrip_identical"],
        "SPAN EXPORT REGRESSION: spans.jsonl did not round-trip identically "
        "through the JSONL exporter",
    ),
    (
        lambda f: not f["chrome_problems"],
        "CHROME TRACE REGRESSION: the trace-event file fails schema "
        "validation, e.g. {chrome_problems}",
    ),
    (
        lambda f: f["enabled"]["timeline_points"] > 0 and f["enabled"]["series"] > 0,
        "SAMPLER REGRESSION: the enabled run produced no throughput timeline "
        "or no time series",
    ),
    (
        _within_ceiling,
        "OBSERVABILITY OVERHEAD REGRESSION: enabled mode used "
        "{overhead_ratio:.3f}× the disabled CPU time, above the allowed "
        "ceiling (disabled {disabled[cpu_time_s]}s, enabled "
        "{enabled[cpu_time_s]}s)",
    ),
)
