"""The simulated-clock periodic sampler.

:class:`MetricsSampler` is a periodic probe driven by the *simulated*
clock.  Each tick it evaluates registered probe callables, records one
point per series, and re-schedules itself.  It never sends messages,
never draws randomness, and never mutates protocol state, so enabling it
cannot change what the simulation delivers (only ``events_executed``
grows by the tick count, which is why the gates pin it off).

The sampler's ``throughput`` series reproduces the bespoke per-bucket
accounting the timeline benchmarks used to carry: a *rate probe* over the
collector's completed count yields, for tick ``k``, the completions in
``(warmup + (k-1)·interval, warmup + k·interval]`` divided by the
interval — exactly the old ``MetricsCollector.throughput_timeline``
buckets, labelled with the bucket's right edge.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple


class MetricsSampler:
    """Periodic time-series probe driven by the simulated clock.

    Probes are zero-argument callables returning a number; they are
    evaluated every ``interval`` simulated seconds starting at
    ``warmup + interval``.  Gauge probes record the value as-is; rate
    probes record the per-second delta since the previous tick (so a probe
    over a cumulative completion count becomes a throughput series).  The
    self-rescheduling tick chain is bounded by the harness's
    ``sim.run(until=...)`` horizon — the sampler needs no explicit stop.
    """

    def __init__(self, sim, interval: float, warmup: float = 0.0):
        if interval <= 0:
            raise ValueError("sampler interval must be positive")
        self.sim = sim
        self.interval = interval
        self.warmup = warmup
        #: Tick timestamps (simulated seconds), one per sample row.
        self.times: List[float] = []
        #: Per-series sampled values, aligned with :attr:`times`.
        self.series: Dict[str, List[float]] = {}
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self._rates: List[Tuple[str, Callable[[], float], List[float]]] = []

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a gauge probe: each tick records ``fn()`` directly."""
        self._probes.append((name, fn))
        self.series[name] = []

    def add_rate_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a rate probe: each tick records ``Δfn() / interval``."""
        self._rates.append((name, fn, [0.0]))
        self.series[name] = []

    def start(self) -> None:
        """Baseline the rate probes and schedule the first tick."""
        for _name, fn, prev in self._rates:
            prev[0] = float(fn())
        self.sim.schedule_callback(self.warmup + self.interval, self._tick)

    def _tick(self) -> None:
        self.times.append(self.sim.now)
        for name, fn in self._probes:
            self.series[name].append(float(fn()))
        for name, fn, prev in self._rates:
            current = float(fn())
            self.series[name].append((current - prev[0]) / self.interval)
            prev[0] = current
        self.sim.schedule_callback(self.interval, self._tick)

    def timeseries(self) -> Dict[str, object]:
        """JSON-friendly dump: interval, warmup, tick times, and all series."""
        return {
            "interval": self.interval,
            "warmup": self.warmup,
            "times": list(self.times),
            "series": {name: list(values) for name, values in sorted(self.series.items())},
        }

    def throughput_timeline(
        self, limit: float, name: str = "throughput"
    ) -> List[Tuple[float, float]]:
        """The ``(time, req/s)`` points of one rate series up to ``limit``.

        Drops ticks past ``limit`` so drain-time completions are excluded,
        matching the semantics of the old bespoke bucket accounting.
        """
        values = self.series.get(name, ())
        return [
            (t, values[i])
            for i, t in enumerate(self.times)
            if t <= limit + 1e-9 and i < len(values)
        ]
