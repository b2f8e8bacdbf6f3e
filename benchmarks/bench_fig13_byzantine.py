"""Figure 13 (extension) — ISS under *active* Byzantine leaders.

The paper claims the system tolerates actively malicious leaders: bucket
rotation defeats request censorship (Section 3.2) and the follower
acceptance rules plus leader-selection policies contain equivocating
leaders (Sections 4.2, 3.4).  The original evaluation only exercises
passive faults (crashes, stragglers); this figure closes that gap with the
adversary suite from ``repro.sim.adversary``:

* **equivocation** — conflicting proposals split the vote, the slots stall
  into ``⊥``, the Blacklist policy evicts the adversary, and correct nodes
  *detect* the attack from f+1 conflicting prepare votes;
* **censorship** — a leader silently drops a bucket set; rotation hands
  the buckets to honest leaders, so the censored traffic completes with a
  bounded latency penalty instead of being lost.

Assertions pin the safety property (identical delivered prefixes at all
correct nodes), eviction under Blacklist, positive detection counters and
censored-traffic completion — the claims, not just the curves.
"""

import pytest

from repro.harness import scenarios
from repro.metrics.report import format_table, print_banner
from repro.runtime.faults import BYZ_CENSOR, BYZ_EQUIVOCATE

from conftest import run_scenario, scaled_duration


def test_fig13_byzantine_leader_sweep(benchmark):
    rows = run_scenario(
        benchmark,
        lambda: scenarios.byzantine_leader_sweep(
            num_nodes=4,
            rate=400.0,
            duration=scaled_duration(10.0),
        ),
        "fig13",
    )
    print_banner("Figure 13: throughput/latency under active Byzantine leaders")
    print(
        format_table(
            [
                "protocol", "behaviour", "adv", "throughput (req/s)",
                "mean lat (s)", "p95 lat (s)", "equiv detected", "evicted", "safe",
            ],
            [
                [
                    r["protocol"], r["behaviour"], r["adversaries"],
                    f"{r['throughput']:.0f}", f"{r['latency_mean']:.2f}",
                    f"{r['latency_p95']:.2f}", r["equivocations_detected"],
                    r["adversaries_evicted"], r["prefixes_identical"],
                ]
                for r in rows
            ],
        )
    )

    for r in rows:
        # Safety under attack: all correct nodes agree on every shared position.
        assert r["prefixes_identical"], r
        # Liveness under attack: the system keeps delivering.
        assert r["throughput"] > 0, r

    def row(protocol, behaviour, adversaries):
        return next(
            r
            for r in rows
            if r["protocol"] == protocol
            and r["behaviour"] == behaviour
            and r["adversaries"] == adversaries
        )

    for protocol in ("pbft", "hotstuff"):
        attacked = row(protocol, BYZ_EQUIVOCATE, 1)
        # Conflicting proposals stall their slots into ⊥ and the Blacklist
        # policy rotates the equivocator out of the leaderset.
        assert attacked["nil_committed"] > 0
        assert attacked["adversaries_evicted"]
    # PBFT correct nodes prove the equivocation from conflicting votes.
    assert row("pbft", BYZ_EQUIVOCATE, 1)["equivocations_detected"] > 0
    benchmark.extra_info["rows"] = rows


def test_fig13_censorship_rotation(benchmark):
    row = run_scenario(
        benchmark,
        lambda: scenarios.censorship_rotation(
            num_nodes=4,
            rate=400.0,
            duration=scaled_duration(8.0),
        ),
        "fig13-censorship",
    )
    print_banner("Figure 13b: bucket rotation vs a censoring leader")
    print(
        format_table(
            ["censored submitted", "completed", "ratio", "mean lat (s)", "penalty ×"],
            [[
                row["censored_submitted"], row["censored_completed"],
                f"{row['censored_completion_ratio']:.3f}",
                f"{row['censored_latency_mean']:.2f}",
                f"{row['latency_penalty']:.2f}",
            ]],
        )
    )
    assert row["prefixes_identical"]
    assert row["censored_submitted"] > 0
    # Bucket rotation delivers the censored traffic despite the adversary.
    assert row["censored_completion_ratio"] >= 0.95
    benchmark.extra_info["rows"] = [row]
