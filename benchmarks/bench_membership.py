"""Membership figure — joining cost vs log size, rolling-upgrade dip.

Wraps the dynamic-membership scenarios
(:func:`repro.harness.scenarios.membership_join`,
:func:`repro.harness.scenarios.rolling_upgrade`) the way the other figure
benchmarks wrap theirs, and emits the rows to ``BENCH_membership.json`` in
the repository root so the reconfiguration-cost trajectory is tracked
across PRs.

Two expected shapes:

* **Time to join vs log size** — the later a replica joins, the more
  committed log it must state-transfer before it reaches the cluster
  frontier, so transferred entries/bytes grow with the log size at join
  while the replica still always catches up.
* **Rolling-upgrade throughput dip** — cycling every replica through a
  remove + re-add (one out at a time) keeps ordering live, so throughput
  during the upgrade stays within a bounded dip of an undisturbed run at
  the same offered load, and every client request still completes.
"""

import json
from pathlib import Path

import pytest

from repro.harness import scenarios
from repro.harness.invariants import check_invariants
from repro.metrics.report import format_table, print_banner

from conftest import run_scenario

#: Where the figure's rows are persisted (repository root, like the other
#: BENCH_*.json artefacts).
OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_membership.json"

#: Join times swept by the time-to-join figure: the offered load is fixed,
#: so a later join means a strictly larger committed log to catch up on.
JOIN_TIMES = (3.0, 7.0, 11.0)

#: Worst acceptable upgrade/baseline throughput ratio.  The upgrade run
#: serves the same offered load with one replica out at a time, so the dip
#: should stay moderate — a collapse below this bound means reconfiguration
#: is stalling ordering rather than riding through it.
MIN_UPGRADE_THROUGHPUT_RATIO = 0.5


def _join_figure_rows():
    rows = []
    for join_time in JOIN_TIMES:
        row = scenarios.membership_join(join_time=join_time, duration=20.0)
        assert row["all_joined"] and len(row["joins"]) == 1, row
        assert not row["violations"], row["violations"]
        join = row["joins"][0]
        rows.append({
            "join_time": join_time,
            "log_size_at_join": join["log_size_at_join"],
            "time_to_join": join["time_to_join"],
            "state_transfer_entries": join["state_transfer_entries"],
            "state_transfer_bytes": join["state_transfer_bytes"],
            "throughput": row["throughput"],
            "all_complete": row["all_complete"],
        })
    return rows


def test_time_to_join_over_log_size(benchmark):
    rows = run_scenario(benchmark, _join_figure_rows, "membership-join")

    print_banner("Time to join over log size at join (ISS-PBFT, 4+1 nodes)")
    print(
        format_table(
            [
                "join time (s)", "log size at join", "time to join (s)",
                "transfer entries", "transfer bytes",
            ],
            [
                [
                    f"{r['join_time']:.1f}", int(r["log_size_at_join"]),
                    f"{r['time_to_join']:.2f}",
                    int(r["state_transfer_entries"]),
                    int(r["state_transfer_bytes"]),
                ]
                for r in rows
            ],
        )
    )

    for r in rows:
        assert r["all_complete"], r
    # Later join ⇒ strictly more committed log ⇒ at least as much to fetch.
    log_sizes = [r["log_size_at_join"] for r in rows]
    transfer = [r["state_transfer_entries"] for r in rows]
    assert log_sizes == sorted(log_sizes) and log_sizes[0] < log_sizes[-1]
    assert transfer == sorted(transfer)
    assert transfer[-1] > 0

    _merge_output({"join_over_log_size": rows})
    benchmark.extra_info["rows"] = rows


def _upgrade_figure_rows():
    upgrade = scenarios.rolling_upgrade()
    # Baseline: identical load, duration and seed, no membership schedule.
    duration = 3.0 + 2 * upgrade["period"] * upgrade["nodes"] + 6.0
    deployment = scenarios.deployment(
        upgrade["protocol"], upgrade["nodes"], rate=300.0, duration=duration,
        drain_time=15.0, epoch_length=scenarios.DEFAULT_MEMBERSHIP_EPOCH_LENGTH,
        **scenarios.GRACEFUL,
    )
    result = deployment.run()
    # A static run's row has no membership section: add what the table reads.
    baseline = dict(
        scenarios.row(deployment, result),
        config_txs_committed=0,
        violations=check_invariants(result),
    )
    return upgrade, baseline


def test_rolling_upgrade_throughput_dip(benchmark):
    upgrade, baseline = run_scenario(
        benchmark, _upgrade_figure_rows, "membership-rolling-upgrade"
    )
    ratio = upgrade["throughput"] / baseline["throughput"]

    print_banner("Rolling-upgrade throughput dip (ISS-PBFT, 4 nodes)")
    print(
        format_table(
            ["run", "tput (req/s)", "latency p95 (s)", "complete", "config txs"],
            [
                ["baseline", f"{baseline['throughput']:.0f}",
                 f"{baseline['latency_p95']:.2f}",
                 baseline["all_complete"], baseline["config_txs_committed"]],
                ["rolling upgrade", f"{upgrade['throughput']:.0f}",
                 f"{upgrade['latency_p95']:.2f}",
                 upgrade["all_complete"], upgrade["config_txs_committed"]],
            ],
        )
    )
    print(f"throughput ratio (upgrade/baseline): {ratio:.3f}")

    assert upgrade["upgrade_complete"], upgrade
    assert upgrade["all_complete"] and baseline["all_complete"]
    assert not upgrade["violations"], upgrade["violations"]
    assert not baseline["violations"], baseline["violations"]
    assert baseline["throughput"] > 0
    assert ratio >= MIN_UPGRADE_THROUGHPUT_RATIO, ratio

    _merge_output({
        "rolling_upgrade": {
            "upgrade": upgrade,
            "baseline": baseline,
            "throughput_ratio": ratio,
        }
    })
    benchmark.extra_info["throughput_ratio"] = ratio


def _merge_output(section):
    """Merge one figure's rows into BENCH_membership.json (tests may run
    individually, so neither may clobber the other's section)."""
    data = {}
    if OUTPUT_PATH.exists():
        data = json.loads(OUTPUT_PATH.read_text())
    data.update(section)
    OUTPUT_PATH.write_text(json.dumps(data, indent=2, default=str) + "\n")
