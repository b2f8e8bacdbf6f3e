"""Ablation benchmarks for the design choices listed under "Ablations" in
docs/ARCHITECTURE.md, "Model and substitutions".

Not part of the paper's figures; these quantify, at simulation scale, the
design decisions the paper argues for qualitatively:

* round-robin vs contiguous sequence-number interleaving (the paper claims
  round-robin minimises log gaps and therefore latency),
* epoch length (shorter epochs recover from faults faster but pay more
  epoch-change overhead).
"""

import pytest

from repro.harness import scenarios
from repro.metrics.report import format_table, print_banner

from conftest import run_scenario, scaled_duration


def test_ablation_seqnr_layout(benchmark):
    rows = run_scenario(
        benchmark,
        lambda: scenarios.layout_ablation(num_nodes=4, rate=400.0, duration=scaled_duration(10.0)),
        "ablation-layout",
    )
    print_banner("Ablation: round-robin vs contiguous sequence-number interleaving")
    print(
        format_table(
            ["layout", "throughput (req/s)", "mean latency (s)", "p95 latency (s)"],
            [[r["layout"], f"{r['throughput']:.0f}", f"{r['latency_mean']:.2f}", f"{r['latency_p95']:.2f}"] for r in rows],
        )
    )
    round_robin = next(r for r in rows if r["layout"] == "round-robin")
    contiguous = next(r for r in rows if r["layout"] == "contiguous")
    # The paper's argument: contiguous blocks create long gaps behind slow
    # segments, so round-robin should not be (meaningfully) worse.
    assert round_robin["latency_mean"] <= contiguous["latency_mean"] * 1.25
    benchmark.extra_info["rows"] = rows


def test_ablation_epoch_length(benchmark):
    rows = run_scenario(
        benchmark,
        lambda: scenarios.epoch_length_ablation(
            num_nodes=4, epoch_lengths=(16, 32, 64), rate=400.0, duration=scaled_duration(10.0)
        ),
        "ablation-epoch-length",
    )
    print_banner("Ablation: epoch length")
    print(
        format_table(
            ["epoch length", "throughput (req/s)", "mean latency (s)", "epochs completed"],
            [[r["epoch_length"], f"{r['throughput']:.0f}", f"{r['latency_mean']:.2f}", int(r["epochs_completed"])] for r in rows],
        )
    )
    # Shorter epochs mean more epoch transitions in the same virtual time.
    assert rows[0]["epochs_completed"] > rows[-1]["epochs_completed"]
    # Throughput is within a reasonable band across epoch lengths (no collapse).
    peaks = [r["throughput"] for r in rows]
    assert min(peaks) > 0.5 * max(peaks)
    benchmark.extra_info["rows"] = rows
