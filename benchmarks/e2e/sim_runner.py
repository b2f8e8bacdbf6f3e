"""Simulator workloads: a fixed scenario repeated, host CPU per rep scored.

The simulated statistics (requests completed, events executed, virtual
latency) are deterministic for a seed, so they are *checked* — identical
across reps, invariants clean — while the host's CPU time for
``Deployment.run()`` is what the end-to-end metrics score.  The minimum
over reps is reported: interference on a shared host only ever adds time.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Dict, List, Optional, Tuple

from repro.core.config import ISSConfig, NetworkConfig, SimConfig, WorkloadConfig
from repro.harness.invariants import check_invariants
from repro.harness.runner import Deployment
from repro.obs import ObsConfig

import child
from probes import Tracer
from result import RunResult, layer_rows
from workloads import SETUP_REPS, SimWorkload


def build(workload: SimWorkload, seed: int) -> Deployment:
    """Construct the scenario from literals."""
    return Deployment(
        config=ISSConfig(**dict(workload.config)),
        network_config=NetworkConfig(**dict(workload.network)),
        workload=WorkloadConfig(random_seed=seed, **dict(workload.workload)),
        sim_config=SimConfig(engine="single"),
        obs=ObsConfig.disabled(),
        recovery_poll=workload.recovery_poll,
        probe_stagger=workload.probe_stagger,
    )


def _timed_setups(workload: SimWorkload, seed: int) -> List[float]:
    """Seconds from launching a fresh interpreter to a runnable deployment.

    ``Deployment(...)`` alone takes about a millisecond in a warm process,
    below what a set-up gate can resolve; what a user waits for before the
    first simulated event is the import of the package plus construction,
    so that is what is timed — in a new process each time.
    """
    times = []
    for _ in range(SETUP_REPS):
        began = time.perf_counter()
        code = child.reap(child.start("sim-setup", workload.name, seed))
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        times.append(time.perf_counter() - began)
    return times


class _Rep:
    """Figures of one timed ``Deployment.run()``."""

    def __init__(self, workload: SimWorkload, seed: int, check: bool):
        deployment = build(workload, seed)
        gc.collect()
        gc.disable()
        try:
            wall_start = time.perf_counter()
            cpu_start = time.process_time()
            result = deployment.run()
            self.cpu_s = time.process_time() - cpu_start
            self.wall_s = time.perf_counter() - wall_start
        finally:
            gc.enable()
        report = result.report
        #: Must repeat exactly for a seed, whatever the host does.
        self.counts = (
            report.submitted, report.completed, deployment.sim.events_executed,
        )
        self.latency_p50_ms = report.latency.p50 * 1e3
        self.latency_p95_ms = report.latency.p95 * 1e3
        self.messages_sent = deployment.network.stats.messages_sent
        self.bytes_sent = deployment.network.stats.bytes_sent
        self.violations: List[str] = check_invariants(result) if check else []


def _run_reps(
    workload: SimWorkload, seed: int, budget_s: float, min_reps: int,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[_Rep], Optional[Dict[str, object]]]:
    """Repeat the scenario for ``budget_s`` (at least ``min_reps`` times).

    With a tracer, its tables are reset before every rep and the table of
    the cheapest rep is returned alongside.
    """
    reps: List[_Rep] = []
    best_table = None
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        rep = _Rep(workload, seed, check=not reps)
        if tracer is not None and (not reps or rep.cpu_s < min(r.cpu_s for r in reps)):
            best_table = tracer.table(rep.cpu_s)
        reps.append(rep)
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and elapsed + elapsed / len(reps) > budget_s:
            return reps, best_table


def run_sim(workload: SimWorkload, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run one simulator workload; untraced or (second half) traced."""
    result = RunResult(workload=workload.name, traced=trace)
    budget = seconds / 2 if trace else seconds
    reps, _ = _run_reps(workload, seed, budget, 2 if trace else workload.min_reps)
    _check(result, reps)
    submitted, completed, events = reps[0].counts
    # The per-op base is the scenario's nominal load, a constant: dividing
    # by the seed's Poisson count would add its +-4 % to a CPU reading.
    settings = dict(workload.workload)
    ops = settings["total_rate"] * settings["duration"]
    cpu_s = min(rep.cpu_s for rep in reps)
    wall_s = min(rep.wall_s for rep in reps)
    result.attempted = len(reps)
    result.note(
        f"{len(reps)} reps, CPU s per rep: "
        + " ".join(f"{rep.cpu_s:.3f}" for rep in reps)
    )
    result.note(
        f"simulated: submitted={submitted} completed={completed} events={events} "
        f"(latencies are virtual ms of the simulated WAN; an op is one of the "
        f"{ops:.0f} requests the scenario offers)"
    )
    if not trace:
        setups = _timed_setups(workload, seed)
        result.note("set-ups s: " + " ".join(f"{s:.3f}" for s in setups))
        result.metrics = {
            "setup_s": statistics.median(setups),
            "goodput_ops_s": ops / wall_s,
            "latency_p50_ms": reps[0].latency_p50_ms,
            "cpu_ms_per_op": cpu_s * 1e3 / ops,
            "rss_max_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result

    tracer = Tracer(clock=time.perf_counter)
    for warning in tracer.install():
        result.note(f"warning: {warning}")
    try:
        traced_reps, table = _run_reps(workload, seed, budget, 2, tracer)
    finally:
        tracer.uninstall()
    _check(result, reps[:1] + traced_reps)
    result.attempted += len(traced_reps)
    traced_cpu_s = min(rep.cpu_s for rep in traced_reps)
    result.metrics = layer_rows(table, ops)
    result.metrics.update(
        {
            "sim.simulator.events": events,
            "sim.simulator.events_per_cpu_s": events / cpu_s,
            "sim.network.messages_sent": reps[0].messages_sent,
            "sim.network.bytes_sent": reps[0].bytes_sent,
            "client.latency_p95_ms": reps[0].latency_p95_ms,
            "trace.overhead_ratio": traced_cpu_s / cpu_s,
        }
    )
    probed = sum(row["self_s"] for row in table["layers"].values())
    result.note(
        f"traced rep: {traced_cpu_s:.3f} CPU s vs {cpu_s:.3f} untraced; "
        f"probed self time {probed:.3f} s"
    )
    return result


def _check(result: RunResult, reps: List[_Rep]) -> None:
    """Determinism across reps and clean invariants, or the run is wrong."""
    for rep in reps:
        if rep.counts != reps[0].counts:
            result.fail(
                f"reps disagree on (submitted, completed, events): "
                f"{reps[0].counts} vs {rep.counts}"
            )
        for violation in rep.violations:
            result.fail(f"invariant: {violation}")
    if reps[0].counts[1] < 1:
        result.fail("no simulated request completed")
