"""Configuration for the observability layer (tracing + metrics sampling).

The layer is **off by default**: a default :class:`ObsConfig` enables
nothing, the harness then installs no tracer and no sampler, and every
instrumentation hook stays a single ``if tracer is not None:`` test on an
attribute that is ``None`` — no allocation, no RNG draw, no extra simulator
event.  That is what keeps the six pinned golden traces bit-identical with
this module imported.

Environment knobs (all optional, read by :meth:`ObsConfig.from_env`):

========================================  =======================================
``REPRO_TRACE``                           truthy (``1``/``true``/``yes``/``on``)
                                          enables the request-lifecycle tracer
``REPRO_TRACE_SAMPLE``                    fraction of requests to trace (0..1,
                                          default 1.0; deterministic per-request
                                          hash sampling, not RNG)
``REPRO_TRACE_METRICS_INTERVAL``          period in simulated seconds of the
                                          time-series sampler (0 disables it)
``REPRO_TRACE_DIR``                       directory to write run artifacts
                                          (``spans.jsonl``, ``trace.json``,
                                          ``metrics.json``) into after the run
========================================  =======================================

The gate runner pins ``ObsConfig.disabled()`` explicitly so a stray
``REPRO_TRACE=1`` in the environment cannot perturb a golden gate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

#: Default sampling fraction: trace every request once tracing is on.
DEFAULT_SAMPLE = 1.0
#: Default sampler period: 0 means "no time-series sampler".
DEFAULT_METRICS_INTERVAL = 0.0

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def _env_float(name: str, default: float) -> float:
    """Read a float env var, falling back to ``default`` on absence/garbage."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


@dataclass(frozen=True)
class ObsConfig:
    """What the observability layer should record for one deployment.

    ``trace`` turns on the request-lifecycle tracer, ``sample`` is the
    deterministic fraction of requests it follows, ``metrics_interval``
    (simulated seconds) turns on the periodic time-series sampler when
    positive, and ``out_dir`` (optional) is where run artifacts are written
    after :meth:`repro.harness.runner.Deployment.run`.
    """

    trace: bool = False
    sample: float = DEFAULT_SAMPLE
    metrics_interval: float = DEFAULT_METRICS_INTERVAL
    out_dir: Optional[str] = None

    @property
    def enabled(self) -> bool:
        """True when anything at all is recorded (tracer or sampler)."""
        return self.trace or self.metrics_interval > 0.0

    @staticmethod
    def disabled() -> "ObsConfig":
        """The canonical all-off configuration (pinned by the gate runner)."""
        return _DISABLED

    @staticmethod
    def from_env() -> "ObsConfig":
        """Build a configuration from the ``REPRO_TRACE*`` environment knobs."""
        raw = os.environ.get("REPRO_TRACE")
        trace = raw is not None and raw.strip().lower() in _TRUTHY
        sample = min(1.0, max(0.0, _env_float("REPRO_TRACE_SAMPLE", DEFAULT_SAMPLE)))
        interval = max(0.0, _env_float("REPRO_TRACE_METRICS_INTERVAL", DEFAULT_METRICS_INTERVAL))
        out_dir = os.environ.get("REPRO_TRACE_DIR") or None
        return ObsConfig(trace=trace, sample=sample, metrics_interval=interval, out_dir=out_dir)


_DISABLED = ObsConfig()
