"""Fast self-tests of the benchmark's own maths (no cluster, < 10 s).

What is pinned here is what a wrong benchmark would get wrong silently:
percentile and due-time arithmetic, self time = span − children, probe
resolution surviving a renamed target, the final-read rule, and the
agreement between ``BENCHMARK.json`` and the names the runner prints.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from checks import judge_final_read  # noqa: E402
from result import RunResult, layer_rows  # noqa: E402

NAME_RULE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RULE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------------- maths
def test_percentile_is_nearest_rank():
    samples = list(range(1, 21))  # 1..20
    assert stats.percentile(samples, 0.50) == 10
    assert stats.percentile(samples, 0.95) == 19  # exactly one sample beyond
    assert stats.percentile(samples, 1.0) == 20
    assert stats.percentile([7.0], 0.99) == 7.0
    assert stats.percentile([3, 1, 2], 0.5) == 2  # input order is irrelevant


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


def test_due_time_schedule():
    assert [stats.due_time(100.0, 4.0, i) for i in range(4)] == [100.0, 100.25, 100.5, 100.75]
    with pytest.raises(ValueError):
        stats.due_time(0.0, 0.0, 1)


def test_open_loop_charges_a_stall_to_the_ops_due_during_it():
    """Drive the real open-loop generator at a fake 10 ms service while the
    event loop is blocked for 0.25 s: the ops scheduled during the block are
    sent late, and each is charged from when it was *due*."""
    import asyncio
    import itertools
    import time
    from types import SimpleNamespace

    sys.path.insert(0, str(ROOT / "src"))
    from live_runner import LoadGen

    timestamps = itertools.count()

    class FakeClient:
        async def put(self, key, value, timeout):
            await asyncio.sleep(0.01)
            rid = SimpleNamespace(client=0, timestamp=next(timestamps))
            return SimpleNamespace(rid=rid, value=value)

    async def scenario():
        workload = workloads.LiveWorkload(name="t", why="", loop="open", rate=100.0)
        loadgen = LoadGen(workload, 1, 0.6, None, [FakeClient()], False)
        begin = loadgen.loop.time()
        loadgen.window_start, loadgen.window_end = begin, begin + 0.6
        loadgen.loop.call_later(0.2, time.sleep, 0.25)
        await loadgen._open_loop(begin)
        while loadgen._tasks:
            await asyncio.gather(*list(loadgen._tasks))
        return loadgen.m

    m = asyncio.run(scenario())
    assert m.attempted == 60 and m.failed == 0  # the schedule was kept, late or not
    assert len(m.latencies) == 60
    assert m.late_max_s >= 0.2
    stalled = [latency for latency in m.latencies if latency > 0.1]
    # ~25 ops were due during the block; the first of them waited all of it.
    assert 15 <= len(stalled) <= 35
    assert max(m.latencies) >= 0.2
    assert stats.percentile(m.latencies, 0.5) < 0.1


def test_iqr_share_matches_the_acceptance_arithmetic():
    values = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))


# ------------------------------------------------------------------- probes
class FakeClock:
    """Advances only when told, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = probes.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf = tracer.wrap(leaf, "inner")

    def middle():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 0.5

    middle = tracer.wrap(middle, "middle")

    def outer():
        clock.now += 3.0
        middle()
        clock.now += 0.25

    outer = tracer.wrap(outer, "outer")
    outer()

    layers = tracer.layers
    assert layers["inner"] == [2, pytest.approx(4.0)]
    assert layers["middle"] == [1, pytest.approx(1.5)]  # 5.5 span − 4.0 children
    assert layers["outer"] == [1, pytest.approx(3.25)]  # 8.75 span − 5.5 child
    # Self times partition the outermost span: nothing counted twice.
    assert sum(cell[1] for cell in layers.values()) == pytest.approx(8.75)
    rows = layer_rows(tracer.table(cpu_s=8.75), ops=2)
    assert rows["inner.calls_per_op"] == 1.0
    assert rows["inner.self_us_per_op"] == pytest.approx(2.0e6)


def test_same_layer_nesting_and_exceptions_keep_the_stack_balanced():
    clock = FakeClock()
    tracer = probes.Tracer(clock=clock)

    def inner():
        clock.now += 1.0
        raise KeyError("boom")

    inner = tracer.wrap(inner, "layer")

    def outer():
        clock.now += 1.0
        try:
            inner()
        except KeyError:
            pass

    outer = tracer.wrap(outer, "layer")
    outer()
    assert tracer.layers["layer"] == [2, pytest.approx(2.0)]
    assert tracer._stack == []


def test_reset_clears_tables_in_place():
    clock = FakeClock()
    tracer = probes.Tracer(clock=clock)

    def work():
        clock.now += 1.0

    wrapped = tracer.wrap(work, "layer")
    wrapped()
    tracer.reset()
    assert tracer.layers["layer"] == [0, 0.0]
    wrapped()  # the wrapper still feeds the same (cleared) row
    assert tracer.layers["layer"] == [1, pytest.approx(1.0)]


def test_missing_probe_target_is_dropped_with_one_warning():
    import json.decoder

    original = json.decoder.JSONDecoder.decode
    tracer = probes.Tracer(clock=FakeClock())
    warnings = tracer.install(
        {
            "kept": ("json.decoder:JSONDecoder.decode",),
            "renamed": ("json.decoder:JSONDecoder.no_such_method",),
            "gone": ("no_such_package.module:Thing.method",),
            "builtin": ("os:fsync",),
        }
    )
    try:
        assert json.decoder.JSONDecoder.decode is not original
        assert json.loads("[1, 2]") == [1, 2]
        assert tracer.layers["kept"][0] == 1
        assert len(warnings) == 3
        assert all(warning.startswith("probe dropped") for warning in warnings)
    finally:
        tracer.uninstall()
    assert json.decoder.JSONDecoder.decode is original


def test_probe_table_resolves_against_the_current_tree():
    """Not a contract — targets may be renamed later and are then dropped
    with a warning — but at the commit that defines the benchmark every
    probe must resolve, or a layer would be silently missing from day one."""
    sys.path.insert(0, str(ROOT / "src"))
    for targets in probes.PROBE_TABLE.values():
        for target in targets:
            probes.resolve(target)
    assert set(probes.TAPS) <= {t for ts in probes.PROBE_TABLE.values() for t in ts}


def test_merge_tables_sums_rows_and_concatenates_samples():
    a = {
        "layers": {"x": {"calls": 2, "self_s": 1.0}},
        "samples": {"fsync_s": [0.1]},
        "counters": {"frames": 3},
        "cpu_s": 2.0,
        "warnings": ["w"],
    }
    b = {
        "layers": {"x": {"calls": 1, "self_s": 0.5}, "y": {"calls": 4, "self_s": 0.25}},
        "samples": {"fsync_s": [0.2, 0.3]},
        "counters": {"frames": 4},
        "cpu_s": 1.0,
        "warnings": ["w"],
    }
    merged = probes.merge_tables([a, b])
    assert merged["layers"]["x"] == {"calls": 3, "self_s": 1.5}
    assert merged["layers"]["y"] == {"calls": 4, "self_s": 0.25}
    assert merged["samples"]["fsync_s"] == [0.1, 0.2, 0.3]
    assert merged["counters"]["frames"] == 7
    assert merged["cpu_s"] == 3.0
    assert merged["warnings"] == ["w"]


# ------------------------------------------------------------------- checks
def test_final_read_rule():
    puts = [(0.0, 1.0, "a"), (2.0, 3.0, "b"), (2.5, 3.5, "c")]
    # "b" and "c" overlapped: the log may have ordered either last.
    assert judge_final_read(puts, (), "b") is None
    assert judge_final_read(puts, (), "c") is None
    # "a" was done before "b" even started: it cannot be the final value.
    assert "overwrote" in judge_final_read(puts, (), "a")
    assert "no acknowledged put" in judge_final_read(puts, (), "zzz")
    assert "no acknowledged put" in judge_final_read(puts, (), None)
    # A timed-out put may have been applied after all.
    assert judge_final_read(puts, {"late"}, "late") is None


# ------------------------------------------------------------ BENCHMARK.json
def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner_vocabulary():
    declared = _benchmark_json()
    expected = workloads.benchmark_json(declared["run_seconds"])
    assert declared == expected
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }


def test_benchmark_json_obeys_the_naming_and_size_rules():
    declared = _benchmark_json()
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = []
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert UNIT_RULE.match(metric["unit"]), metric
        names.append(metric["name"])
    for name in names:
        assert NAME_RULE.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


@pytest.mark.parametrize("traced", [False, True])
def test_runner_prints_exactly_the_declared_names(traced, capsys):
    declared = _benchmark_json()
    kind = "per_layer" if traced else "end_to_end"
    result = RunResult(workload="live_steady", traced=traced, attempted=1)
    result.metrics = {declared[kind][0]["name"]: 1.5}
    summary = run.report(result)
    assert list(summary["metrics"]) == [metric["name"] for metric in declared[kind]]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    printed = capsys.readouterr().out
    for metric in declared[kind]:
        assert metric["name"] in printed and metric["unit"] in printed


def test_report_flags_a_metric_outside_the_catalogue(capsys):
    result = RunResult(workload="sim_n8", traced=False, attempted=1)
    result.metrics = {"made_up_metric": 1.0}
    summary = run.report(result)
    capsys.readouterr()
    assert summary["correct"] is False


def test_environment_scrub_removes_every_repro_knob(monkeypatch):
    environment = {"REPRO_FSYNC": "never", "REPRO_ENGINE": "sharded", "UNRELATED": "kept"}
    monkeypatch.setattr(run.os, "environ", environment)
    run._scrub_environment()
    assert environment == {"UNRELATED": "kept"}


def test_no_module_of_the_benchmark_starts_a_resource_tracker():
    """``multiprocessing`` (spawn) leaves its resource tracker running after
    the parent exits; children go through ``child.py`` (``subprocess``)."""
    for path in sorted(HERE.glob("*.py")):
        if path.name != Path(__file__).name:
            assert not re.search(
                r"^\s*(import|from)\s+multiprocessing", path.read_text(), re.M
            ), path.name
