"""Client-abuse figure — correct-client throughput/latency under abusive
end users.

The paper's Section 3.7 defences (watermark windows, request signatures,
payload-excluded bucket hashing) target *malicious clients*, but the
original evaluation never attacks them.  This figure closes that gap with
the malicious-client suite from ``repro.sim.client_adversary``: it sweeps
the number of abusive clients for every behaviour (watermark abuse,
duplicate flooding, bucket bias, forged signatures), with wire batching on
and off, and reports how much the *correct* clients' throughput and
latency degrade.

Assertions pin the defence claims, not just the curves: every correct
client's requests complete, delivered prefixes stay identical across all
nodes, each abusive submission class is rejected and counted
(the ``client_abuse`` section of ``scenarios.row``), and per-client node
memory stays bounded.

The sweep attacks with up to 2 of 8 clients (``client_abuse_sweep``'s
``abusive_counts`` default); ``REPRO_BENCH_SCALE`` scales durations like
every other figure benchmark.
"""

import pytest

from repro.harness import scenarios
from repro.metrics.report import format_table, print_banner

from conftest import run_scenario, scaled_duration


@pytest.mark.parametrize("flush_interval", [0.0, None], ids=["unbatched", "batched"])
def test_client_abuse_sweep(benchmark, flush_interval):
    rows = run_scenario(
        benchmark,
        lambda: scenarios.client_abuse_sweep(
            num_nodes=4,
            num_clients=8,
            rate=400.0,
            duration=scaled_duration(6.0),
            flush_interval=flush_interval,
        ),
        "client-abuse",
    )
    print_banner(
        "Client abuse: correct-client throughput/latency vs abusive clients "
        f"({'batched' if flush_interval is None else 'unbatched'})"
    )
    print(
        format_table(
            [
                "behaviour", "abusive", "throughput (req/s)", "mean lat (s)",
                "p95 lat (s)", "correct done", "rejected", "dups", "safe",
            ],
            [
                [
                    r["client_behaviour"], r["abusive"], f"{r['throughput']:.0f}",
                    f"{r['latency_mean']:.2f}", f"{r['latency_p95']:.2f}",
                    r["all_complete"], int(r["rejections_total"]),
                    int(r["duplicates_total"]), r["prefixes_identical"],
                ]
                for r in rows
            ],
        )
    )

    for r in rows:
        # The defences, not just the curves: correct clients unharmed...
        assert r["all_complete"], r
        # ...safety across all nodes...
        assert r["prefixes_identical"], r
        # ...and every abusive submission class rejected and counted.
        assert r["abuse_contained"], r
        # Node memory stays bounded: a node's out-of-order watermark buffers
        # never exceed one window per client.
        assert r["out_of_order_max"] <= scenarios.CLIENT_ABUSE_WINDOW * 8, r

    baseline = next(r for r in rows if r["abusive"] == 0)
    assert baseline["throughput"] > 0
    benchmark.extra_info["rows"] = rows


def test_watermark_stall(benchmark):
    row = run_scenario(
        benchmark,
        lambda: scenarios.watermark_stall(duration=scaled_duration(6.0)),
        "watermark-stall",
    )
    print_banner("Watermark stall: a gap-leaving client wedges only itself")
    print(
        format_table(
            [
                "abuser low", "stalled", "correct lows advanced",
                "correct done", "ooo max", "safe",
            ],
            [[
                row["abuser_low_watermark"], row["abuser_stalled"],
                row["correct_lows_advanced"], row["all_complete"],
                row["out_of_order_max"], row["prefixes_identical"],
            ]],
        )
    )
    # The gap pins the abuser inside its window while the rest of the
    # system keeps moving and node memory stays bounded.
    assert row["abuser_stalled"]
    assert row["correct_lows_advanced"]
    assert row["all_complete"]
    assert row["prefixes_identical"]
    assert row["out_of_order_bounded"]
    benchmark.extra_info["rows"] = [row]
