#!/usr/bin/env python3
"""Fault-tolerance demo: leader crashes and Byzantine stragglers.

Reproduces, at toy scale, the behaviours of Section 6.4 of the paper:

* a leader crashing at the start of an epoch leaves ⊥ entries in its segment
  and is then excluded by the BLACKLIST leader-selection policy,
* a Byzantine straggler (slow but never quiet) cannot be blamed by any
  timeout and drags latency up for everyone,
* in all cases safety (identical logs) and liveness (all requests delivered)
  are preserved.

Run with:  python examples/fault_tolerance_demo.py
"""

from repro import Deployment, ISSConfig, NetworkConfig, WorkloadConfig
from repro.harness.invariants import check_prefix_identity
from repro.workload import epoch_start_crashes, stragglers


def build_deployment(crash=False, straggler=False):
    config = ISSConfig(
        num_nodes=4,
        protocol="pbft",
        epoch_length=16,
        max_batch_size=32,
        batch_rate=8.0,
        max_batch_timeout=0.5,
        view_change_timeout=4.0,
        epoch_change_timeout=4.0,
    )
    workload = WorkloadConfig(num_clients=4, total_rate=200.0, duration=20.0, payload_size=256)
    # One fault list, whatever the mix: the builders return lists that concatenate.
    faults = []
    if crash:
        faults += epoch_start_crashes(1, config.num_nodes, epoch=0)
    if straggler:
        faults += stragglers(1, config.num_nodes, delay=2.0)
    return Deployment(
        config,
        network_config=NetworkConfig(num_datacenters=4),
        workload=workload,
        faults=faults,
        drain_time=10.0,
    )


def check_safety(result) -> bool:
    """All correct nodes hold the same delivered log prefix."""
    return not check_prefix_identity(result.nodes)


def describe(name, result):
    report = result.report
    alive = [n for n in result.nodes if not n.crashed]
    sample = alive[0]
    print(f"--- {name} ---")
    print(f"  delivered            : {report.completed}/{report.submitted} requests")
    print(f"  throughput           : {report.throughput:8.1f} req/s")
    print(f"  mean / p95 latency   : {report.latency.mean:6.2f} s / {report.latency.p95:6.2f} s")
    print(f"  epochs completed     : {sample.epochs_completed}")
    print(f"  ⊥ (nil) log entries  : {sample.nil_committed}")
    leaders = sample.manager.leaders_for(sample.current_epoch)
    print(f"  current leaderset    : {leaders}")
    print(f"  safety (equal logs)  : {'OK' if check_safety(result) else 'VIOLATED'}")
    print()
    return report


def main() -> None:
    print("=== ISS under faults (4 nodes, PBFT, BLACKLIST policy) ===\n")

    baseline = describe("fault-free baseline", build_deployment().run())
    crash = describe("one leader crashes at epoch start", build_deployment(crash=True).run())
    slow = describe("one Byzantine straggler (2 s proposal delay)", build_deployment(straggler=True).run())

    print("summary:")
    print(f"  crash   : latency x{crash.latency.mean / baseline.latency.mean:4.1f}, "
          f"crashed leader removed from leaderset, all requests still delivered")
    print(f"  straggler: throughput x{slow.throughput / baseline.throughput:4.2f}, "
          f"latency x{slow.latency.mean / baseline.latency.mean:4.1f}, "
          f"never suspected (no ⊥ entries) — matches the paper's Figure 11/12 behaviour")


if __name__ == "__main__":
    main()
