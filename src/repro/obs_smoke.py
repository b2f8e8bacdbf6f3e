"""Observability smoke test (``python -m repro.obs_smoke``).

Runs the canonical 8-node profiling scenario (:data:`repro.perf_smoke.SCENARIO`,
unbatched) twice per repetition — once with observability disabled and once
with full-rate span tracing plus a 1 s metrics sampler — and gates the
tentpole claims of the observability subsystem:

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
  machine, ``--no-check`` skips only this overhead gate).  The ratio is
  taken over process CPU time — on a loaded shared machine wall clock
  jitters by far more than the gated 10%, while CPU time isolates what the
  tracing hooks actually cost; wall time is still recorded alongside.

On success the figures are written to ``BENCH_obs_overhead.json`` in the
repository root so the overhead trajectory is tracked across PRs.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import golden, perf_smoke, smokelib
from .obs import ObsConfig
from .obs.export import (
    CHROME_TRACE_FILE,
    SPANS_FILE,
    read_jsonl,
    validate_chrome_trace,
    write_run_artifacts,
)
from .obs.spans import assemble_spans, chain_violation

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
    with whatever else the process has ever allocated (in the CI chain this
    smoke runs after six others), not with the tracing hooks under test.
    """
    deployment = perf_smoke.build_deployment(0.0, obs=obs)
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


def measure(repetitions: int = REPETITIONS) -> Dict[str, object]:
    """Run the disabled/enabled pairs and collect every gate's figures."""
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
        deployment, result, cpu, wall = _timed_run(ObsConfig.disabled())
        disabled_cpus.append(cpu)
        disabled_walls.append(wall)
        disabled_figs = {
            "completed": result.report.completed,
            "trace_sha256": golden.trace_sha256(result.nodes[0]),
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
            "trace_sha256": golden.trace_sha256(result.nodes[0]),
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
    with tempfile.TemporaryDirectory(prefix="obs_smoke_") as scratch:
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
        "scenario": dict(perf_smoke.SCENARIO),
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


def semantic_violations(figures: Dict[str, object]) -> Optional[str]:
    """The deterministic observability claims (everything but wall clock)."""
    disabled, enabled = figures["disabled"], figures["enabled"]
    if enabled["completed"] != disabled["completed"] or (
        enabled["trace_sha256"] != disabled["trace_sha256"]
    ):
        return (
            "OBSERVER EFFECT: the traced run completed "
            f"{enabled['completed']} requests (digest "
            f"{enabled['trace_sha256'][:12]}…) but the untraced run "
            f"{disabled['completed']} (digest "
            f"{disabled['trace_sha256'][:12]}…) — tracing moved the schedule"
        )
    if figures["completed_spans"] != enabled["completed"]:
        return (
            "SPAN COVERAGE REGRESSION: "
            f"{enabled['completed']} requests completed but only "
            f"{figures['completed_spans']} spans closed"
        )
    if figures["span_chain_violations"]:
        return (
            "SPAN CHAIN REGRESSION: "
            f"{figures['span_chain_violations']} completed request(s) have "
            f"broken span chains, e.g. {figures['span_violation_examples']}"
        )
    if not figures["spans_roundtrip_identical"]:
        return (
            "SPAN EXPORT REGRESSION: spans.jsonl did not round-trip "
            "identically through the JSONL exporter"
        )
    if figures["chrome_problems"]:
        return (
            "CHROME TRACE REGRESSION: the trace-event file fails schema "
            f"validation, e.g. {figures['chrome_problems']}"
        )
    if figures["enabled"]["timeline_points"] <= 0 or figures["enabled"]["series"] <= 0:
        return (
            "SAMPLER REGRESSION: the enabled run produced no throughput "
            "timeline or no time series"
        )
    return None


def check_overhead(figures: Dict[str, object]) -> Optional[str]:
    """Return an error string when tracing costs more CPU time than allowed."""
    ratio = float(figures["overhead_ratio"])
    ceiling = 1.0 + OVERHEAD_TOLERANCE
    if ratio > ceiling:
        return (
            f"OBSERVABILITY OVERHEAD REGRESSION: enabled mode used "
            f"{ratio:.3f}× the disabled CPU time, above the allowed "
            f"{ceiling:.2f}× "
            f"(disabled {figures['disabled']['cpu_time_s']}s, "
            f"enabled {figures['enabled']['cpu_time_s']}s)"
        )
    return None


def bench_output_path() -> Path:
    """Location of the ``BENCH_obs_overhead.json`` artefact (repo root)."""
    return smokelib.bench_output_path("BENCH_obs_overhead.json")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: measure, gate, and record the overhead figures."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the result JSON (default: ./BENCH_obs_overhead.json)",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the CPU-time overhead gate (deterministic gates still run)",
    )
    args = parser.parse_args(argv)

    scenario = perf_smoke.SCENARIO
    print(
        f"obs smoke: {scenario['num_nodes']} nodes, "
        f"{scenario['total_rate']:.0f} req/s, {scenario['duration']:.0f}s "
        f"virtual, untraced vs traced (sample=1.0, 1s sampler), "
        f"min of {REPETITIONS} ..."
    )
    figures = measure()
    smokelib.print_figures(figures)

    # The deterministic gates apply in every mode — a bench artefact of a
    # perturbed or incomplete trace must never be recorded.
    violation = semantic_violations(figures)
    if violation is not None:
        print(violation, file=sys.stderr)
        return 1

    if not args.no_check:
        error = check_overhead(figures)
        if error is not None:
            # One fresh measurement absorbs a noisy machine; a genuine
            # hot-path regression fails both times.
            print(f"{error} — retrying once", file=sys.stderr)
            figures = measure()
            smokelib.print_figures(figures)
            violation = semantic_violations(figures)
            if violation is not None:
                print(violation, file=sys.stderr)
                return 1
            error = check_overhead(figures)
        if error is not None:
            print(error, file=sys.stderr)
            return 1
        print(
            f"overhead check ok ({figures['overhead_ratio']:.3f}× CPU time, "
            f"ceiling {1.0 + OVERHEAD_TOLERANCE:.2f}×)"
        )

    output = Path(args.output) if args.output else bench_output_path()
    smokelib.write_bench(output, "obs_smoke", figures)
    print(f"wrote {output}")
    print(
        f"obs smoke ok ({figures['completed_spans']} closed spans, "
        f"{figures['chrome_events']} trace events)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
