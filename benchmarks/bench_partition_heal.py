"""Partition-heal figure — reconvergence cost vs partition duration, plus
the rest of the network-chaos battery.

The paper's evaluation crashes nodes but never partitions the network;
this figure closes that gap with the chaos subsystem from
``repro.sim.chaos``.  The headline sweep isolates one node for longer and
longer windows (:data:`PARTITION_DURATIONS`) and reports how time-to-reconverge, view-change count and client-retry volume
grow with the outage; companion tests cover the bridge topology (no side
has a quorum), a one-way link block, the flapping-link sweep and the
retry-storm stress.

Assertions pin the partition-tolerance claims, not just the curves: every
client's requests complete through retry/backoff, delivered prefixes stay
identical across correct nodes, every partition record reconverges after
its heal, and drops are attributed to their cause per payload.

On success the duration sweep (plus the bridge row) is written to
``BENCH_partition_heal.json`` in the repository root.  The same artefact
is also refreshed by the CI gate ``python -m repro.gate partition`` with
its pinned single-scenario figures — whichever ran last wins; both stamp a
``source`` key so the trajectory stays attributable.

``REPRO_BENCH_SCALE`` scales durations like every other figure benchmark.
"""

import json
from pathlib import Path

import pytest

from repro.harness import scenarios
from repro.metrics.report import format_table, print_banner

from conftest import run_scenario, scaled_duration

BENCH_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_partition_heal.json"

#: Partition durations the headline sweep isolates the node for (seconds).
PARTITION_DURATIONS = (2.0, 5.0, 8.0)


def _assert_chaos_row(row):
    """The claims every chaos scenario must uphold (see module docstring)."""
    assert row["all_complete"], row
    assert row["prefixes_identical"], row
    assert row["reconverged"], row


def test_partition_heal_sweep(benchmark):
    rows = run_scenario(
        benchmark,
        lambda: [
            scenarios.partition_minority(
                duration=scaled_duration(15.0), partition_duration=d
            )
            for d in PARTITION_DURATIONS
        ],
        "partition-heal",
    )
    bridge = scenarios.partition_bridge(duration=scaled_duration(15.0))
    print_banner("Partition heal: reconvergence cost vs partition duration")
    print(
        format_table(
            [
                "scenario", "split (s)", "reconverge (s)", "view changes",
                "retries", "throughput (req/s)", "done", "safe",
            ],
            [
                [
                    r["scenario"], f"{r.get('partition_duration', 6.0):.0f}",
                    f"{r['time_to_reconverge']:.2f}",
                    r["view_changes_during"], int(r["client_retries"]),
                    f"{r['throughput']:.0f}", r["all_complete"],
                    r["prefixes_identical"],
                ]
                for r in rows + [bridge]
            ],
        )
    )

    for row in rows + [bridge]:
        _assert_chaos_row(row)
        assert row["time_to_reconverge"] >= 0.0, row
        assert row["drops_by_cause"]["partition"] > 0, row
    benchmark.extra_info["rows"] = rows + [bridge]

    # Only figures that passed every assertion may refresh the tracked
    # artefact (same rule as the partition gate).
    BENCH_OUTPUT.write_text(
        json.dumps(
            {
                "source": "bench_partition_heal",
                "duration_sweep": rows,
                "bridge": bridge,
            },
            indent=2,
            default=str,
        )
        + "\n"
    )


def test_asymmetric_link(benchmark):
    row = run_scenario(
        benchmark,
        lambda: scenarios.asymmetric_link(duration=scaled_duration(12.0)),
        "asymmetric-link",
    )
    print_banner("Asymmetric link: one-way block absorbed without recovery")
    # A one-way block leaves a full quorum; protocol redundancy absorbs it.
    _assert_chaos_row(row)
    assert row["drops_by_cause"]["link-fault"] > 0, row
    benchmark.extra_info["rows"] = [row]


def test_link_flap_sweep(benchmark):
    rows = run_scenario(
        benchmark,
        lambda: scenarios.link_flap_sweep(duration=scaled_duration(12.0)),
        "link-flap",
    )
    print_banner("Link flapping: reliable transport rides out the flaps")
    print(
        format_table(
            ["period (s)", "throughput (req/s)", "drops", "done", "safe"],
            [
                [
                    f"{r['flap_period']:.1f}", f"{r['throughput']:.0f}",
                    r["drops_by_cause"]["link-fault"], r["all_complete"],
                    r["prefixes_identical"],
                ]
                for r in rows
            ],
        )
    )
    for row in rows:
        _assert_chaos_row(row)
        assert row["drops_by_cause"]["link-fault"] > 0, row
    benchmark.extra_info["rows"] = rows


def test_partition_heal_retry_storm(benchmark):
    row = run_scenario(
        benchmark,
        lambda: scenarios.partition_heal_retry_storm(
            duration=scaled_duration(15.0)
        ),
        "retry-storm",
    )
    print_banner("Retry storm: backoff bounds the post-heal burst")
    _assert_chaos_row(row)
    # The hot retry loop must actually retry — and backoff must keep the
    # storm bounded (no more than a handful of retries per request).
    assert row["client_retries"] > 0, row
    assert row["client_retries"] < 10 * row["submitted"], row
    benchmark.extra_info["rows"] = [row]
