"""Observability layer: request-lifecycle tracing, metrics, exporters.

Off by default and zero-overhead when disabled: components hold
``tracer = None`` and every instrumentation hook is guarded by a single
``if tracer is not None:`` test, so the six pinned golden traces replay
bit-identically with this package imported.  Enable it per-deployment via
``Deployment(..., obs=ObsConfig(trace=True, metrics_interval=1.0))`` or
globally via the ``REPRO_TRACE*`` environment variables (see
:mod:`repro.obs.config`).

Modules: :mod:`~repro.obs.config` (knobs), :mod:`~repro.obs.tracer`
(event log + hooks), :mod:`~repro.obs.metrics` (simulated-clock sampler),
:mod:`~repro.obs.spans` (post-run span assembly), :mod:`~repro.obs.export`
(JSONL / Chrome trace-event / metrics artifacts).
"""

from .config import ObsConfig
from .export import (
    chrome_trace,
    read_jsonl,
    validate_chrome_trace,
    write_jsonl,
    write_run_artifacts,
)
from .metrics import MetricsSampler
from .spans import assemble_spans, chain_violation, phase_breakdown, slowest_spans
from .tracer import RequestTracer

__all__ = [
    "ObsConfig",
    "RequestTracer",
    "MetricsSampler",
    "assemble_spans",
    "chain_violation",
    "phase_breakdown",
    "slowest_spans",
    "chrome_trace",
    "read_jsonl",
    "validate_chrome_trace",
    "write_jsonl",
    "write_run_artifacts",
]
