"""The paired-run tool's summary (``benchmarks/paired.py``) on fixed rows."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "paired.py"
spec = importlib.util.spec_from_file_location("paired", PATH)
paired = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired)


def rows_of(values):
    """``values``: pair index -> side -> metrics; parent first on even pairs."""
    return [
        {
            "pair": index,
            "side": side,
            "first": (side == "parent") == (index % 2 == 0),
            "correct": True,
            "attempted": 100,
            "failed": 0,
            "metrics": metrics,
        }
        for index, sides in values.items()
        for side, metrics in sides.items()
    ]


def test_summary_reads_quartiles_ratio_pairs_won_and_clearness():
    cpu = {"parent": [1.0, 1.2, 1.4, 1.1, 1.3], "change": [0.9, 1.0, 1.5, 0.8, 1.0]}
    goodput = {"parent": [800, 800, 800, 800, 800], "change": [801, 799, 802, 800, 803]}
    values = {
        i: {
            side: {"cpu_ms_per_op": cpu[side][i], "goodput_ops_s": goodput[side][i]}
            for side in ("parent", "change")
        }
        for i in range(5)
    }
    summary = paired.summarize(
        rows_of(values), {"cpu_ms_per_op": "lower", "goodput_ops_s": "higher", "gone": "lower"}
    )
    by_name = {entry["metric"]: entry for entry in summary}
    assert set(by_name) == {"cpu_ms_per_op", "goodput_ops_s"}  # absent metrics skipped

    entry = by_name["cpu_ms_per_op"]
    # statistics.quantiles(n=4), "exclusive": positions (n + 1) * k / 4.
    assert entry["parent"] == pytest.approx((1.05, 1.2, 1.35))
    assert entry["change"] == pytest.approx((0.85, 1.0, 1.25))
    assert entry["ratio"] == pytest.approx(1.0 / 1.2)
    assert (entry["won"], entry["pairs"]) == (4, 5)  # pair 2 lost (1.5 > 1.4)
    assert entry["clear"] is False  # medians 0.2 apart, parent IQR 0.3

    entry = by_name["goodput_ops_s"]
    assert entry["won"] == 3  # higher is better; a tie (pair 3) is not a win
    assert entry["ratio"] == pytest.approx(801 / 800)
    assert entry["clear"] is True  # parent IQR 0, medians 1 apart


def test_summary_ignores_a_pair_missing_a_side_and_one_pair_is_its_own_quartiles():
    rows = rows_of({0: {"parent": {"m": 2.0}, "change": {"m": 1.0}}, 1: {"parent": {"m": 5.0}}})
    (entry,) = paired.summarize(rows, {"m": "lower"})
    assert entry["parent"] == (2.0, 2.0, 2.0) and entry["change"] == (1.0, 1.0, 1.0)
    assert (entry["won"], entry["pairs"], entry["clear"]) == (1, 1, True)
