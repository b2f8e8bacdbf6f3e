"""The benchmark's fixed vocabulary: workloads, pinned inputs, metric names.

Everything a later change may cite lives here as a literal — no
``repro.harness.scenarios`` helper and no ``REPRO_*`` environment variable
feeds any of it, so the inputs cannot drift with the program under test.
``BENCHMARK.json`` at the repo root repeats the names and bounds; the
self-tests fail if the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from probes import PROBE_TABLE

# --------------------------------------------------------------- live inputs
#: One loadgen process, one TcpTransport, this many client ids on it.  Two
#: ids would cap the cluster at 2 x client_watermark_window per epoch
#: (640 ops/s in sizing): the benchmark would measure the watermark window.
NUM_CLIENT_IDS = 16
NUM_LIVE_NODES = 4
NUM_KEYS = 1000

#: ``ISSConfig`` fields pinned for every live workload.  The defaults would
#: measure artefacts: ``max_batch_timeout=4.0`` with ``batch_rate=32`` makes
#: every low-load latency exactly 4.00 s.
LIVE_CONFIG = dict(
    num_nodes=NUM_LIVE_NODES,
    protocol="pbft",
    epoch_length=256,
    max_batch_size=256,
    batch_rate=None,
    max_batch_timeout=0.05,
    client_retry_timeout=1.0,
    client_retry_max_timeout=4.0,
    random_seed=1,
)
LIVE_FSYNC = "always"
LIVE_BATCH_FLUSH_INTERVAL = 0.0
LIVE_HOST = "127.0.0.1"

#: Discarded before the measured window opens (first epoch, connection
#: set-up, interpreter warm-up of every replica).
LIVE_WARMUP_S = 2.0
#: Set-ups timed per untraced run (cluster boots, or fresh simulator
#: processes); ``setup_s`` is their median.
SETUP_REPS = 3


@dataclass(frozen=True)
class LiveWorkload:
    """One live traffic mix against the 4-replica localhost cluster."""

    name: str
    why: str
    #: ``"open"``: ops are due on a fixed schedule whatever the cluster
    #: does; ``"closed"``: ``in_flight`` callers each wait for their reply.
    loop: str
    rate: float = 0.0
    in_flight: int = 0
    get_share: float = 0.0
    value_bytes: int = 64
    #: Long enough that a stall shows as latency, not as a failed op.
    op_timeout_s: float = 8.0
    #: Extra ``ISSConfig`` fields on top of :data:`LIVE_CONFIG`.
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Fault schedule as fractions of the measured window (None = no fault).
    kill_at: Optional[float] = None
    restart_at: Optional[float] = None
    victim: int = 3
    #: Listed in BENCHMARK.json, i.e. steady enough to carry bounds.
    gated: bool = True


@dataclass(frozen=True)
class SimWorkload:
    """One fixed simulator scenario, repeated; host CPU per rep is scored."""

    name: str
    why: str
    config: Tuple[Tuple[str, object], ...]
    network: Tuple[Tuple[str, object], ...]
    workload: Tuple[Tuple[str, object], ...]
    #: Passed explicitly so neither falls back to a ``REPRO_*`` variable.
    recovery_poll: float = 0.25
    probe_stagger: float = 2.0
    min_reps: int = 3
    gated: bool = True


#: One-way latencies (s) between the eight regions of the Fig. 5 sweep,
#: copied as literals so the scenario cannot move with the harness.
WAN_ONE_WAY_LATENCY = [
    [0.0, 0.033, 0.038, 0.045, 0.080, 0.108, 0.058, 0.093],
    [0.033, 0.0, 0.065, 0.073, 0.053, 0.083, 0.088, 0.110],
    [0.038, 0.065, 0.0, 0.013, 0.105, 0.088, 0.093, 0.060],
    [0.045, 0.073, 0.013, 0.0, 0.113, 0.080, 0.103, 0.055],
    [0.080, 0.053, 0.105, 0.113, 0.0, 0.035, 0.128, 0.063],
    [0.108, 0.083, 0.088, 0.080, 0.035, 0.0, 0.163, 0.030],
    [0.058, 0.088, 0.093, 0.103, 0.128, 0.163, 0.0, 0.150],
    [0.093, 0.110, 0.060, 0.055, 0.063, 0.030, 0.150, 0.0],
]

WORKLOADS = (
    LiveWorkload(
        name="live_steady",
        why=(
            "open loop 800 ops/s (a quarter of peak), 90% put 10% get, 64 B: CPU-light, "
            "so latency is batch-cut wait + PBFT phases + in-order delivery"
        ),
        loop="open",
        rate=800.0,
        get_share=0.10,
    ),
    LiveWorkload(
        name="live_saturate",
        why=(
            "closed loop, 512 puts of 64 B in flight: CPU-bound on per-message cost "
            "(pickle, HMAC, asyncio, WAL append); peak throughput, too unsteady to gate"
        ),
        loop="closed",
        in_flight=512,
        # Not in BENCHMARK.json.  A loop that saturates the CPUs takes the
        # shared host's speed drift in full (about 30 % slower for a minute
        # at a time): over five sets of ten runs the interquartile spread
        # was 0.06-0.24 for goodput, 0.05-0.31 for p50 and 0.06-0.24 for
        # CPU/op, so two sets of the same commit can disagree by more than
        # any allowed bound.  Run it by name for a peak-throughput reading.
        gated=False,
    ),
    LiveWorkload(
        name="live_bulk",
        why=(
            "open loop 600 ops/s, puts of 4 KiB: the same wire and storage layers paid "
            "per byte, not per message; catches a codec that wins only on small frames"
        ),
        # Open loop on purpose.  Every checkpoint rewrites a snapshot of the
        # *whole* log; with 4 KiB values the replicas stall for as long as
        # that takes.  A closed loop feeds the stalls back into the load
        # (256 in flight: 1-3 s stalls, goodput, CPU/op and RSS spread
        # 16-28 % between identical runs); a fixed schedule does not, and
        # the per-byte cost still shows in cpu_ms_per_op.
        loop="open",
        rate=600.0,
        value_bytes=4096,
    ),
    LiveWorkload(
        name="live_crash",
        why=(
            "open loop 500 ops/s, kill -9 replica 3 at 30% of the window, restart at 55%: "
            "view change, client retries, WAL read path and state transfer"
        ),
        loop="open",
        rate=500.0,
        get_share=0.10,
        # Short epochs on purpose: checkpoints and state transfer then fall
        # inside the window.  The one-second timeouts bound the stall.
        config_overrides=(
            ("epoch_length", 64),
            ("view_change_timeout", 1.0),
            ("epoch_change_timeout", 1.0),
            ("vc_recovery", True),
        ),
        kill_at=0.30,
        restart_at=0.55,
    ),
    SimWorkload(
        name="sim_n8",
        why=(
            "the perf_smoke scenario (8 PBFT nodes, 16 clients, 2000 req/s, 10 virtual s): "
            "client-request, validation and bucket-heavy simulator path"
        ),
        config=(("num_nodes", 8), ("random_seed", 42)),
        network=(),
        workload=(("num_clients", 16), ("total_rate", 2000.0), ("duration", 10.0)),
    ),
    SimWorkload(
        name="sim_n32",
        why=(
            "the Fig. 5 n=32 point (ISS-PBFT, 8-region WAN, recovery armed, 300 req/s, "
            "3 virtual s): protocol-message n-squared path, where events/s drops"
        ),
        config=(
            ("num_nodes", 32),
            ("protocol", "pbft"),
            ("epoch_length", 32),
            ("min_segment_size", 2),
            ("buckets_per_leader", 16),
            ("max_batch_size", 128),
            ("batch_rate", 16.0),
            ("min_batch_timeout", 0.0),
            ("max_batch_timeout", 1.0),
            ("epoch_change_timeout", 5.0),
            ("view_change_timeout", 5.0),
            ("view_change_jitter", 0.1),
            ("stalled_catchup_grace", 2.0),
            ("vc_recovery", True),
            ("client_watermark_window", 65536),
            ("client_retry_timeout", 2.0),
            ("client_retry_backoff", 2.0),
            ("client_retry_max_timeout", 8.0),
            ("client_retry_jitter", 0.1),
            ("send_client_responses", True),
            ("random_seed", 1),
        ),
        network=(
            ("bandwidth_bps", 20_000_000.0),
            ("num_datacenters", 8),
            ("dc_latency_matrix", WAN_ONE_WAY_LATENCY),
            ("batch_flush_interval", 0.02),
        ),
        workload=(
            ("num_clients", 8),
            ("total_rate", 300.0),
            ("payload_size", 500),
            ("duration", 3.0),
        ),
        recovery_poll=0.25,
        probe_stagger=0.5,
    ),
)

WORKLOADS_BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ------------------------------------------------------------------- metrics
@dataclass(frozen=True)
class Metric:
    """Name, unit and direction of one reported number."""

    name: str
    unit: str
    better: str
    #: Regression bound (share of the parent's median); end-to-end only.
    bound: Optional[float] = None


#: Untraced runs report exactly these, on every workload.  On the sim_*
#: workloads the latency is *virtual* milliseconds of the simulated WAN (a
#: behaviour guard: host-speed work must leave it unchanged) and an op is
#: one request of the scenario's nominal load.  The bounds are wide because
#: the shared 2-core host drifts: CPU-bound readings move 10-20 % over
#: minutes whatever runs (README, "Noise").  Tail percentiles, the longest
#: stall and the mean did not repeat within 0.25 on every workload and are
#: per-layer metrics instead.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("goodput_ops_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("rss_max_mb", "MB", "lower", 0.15),
)

#: Named extras of the traced run, beyond the two rows per probed layer.
_EXTRAS: Tuple[Metric, ...] = (
    Metric("core.buckets.queue_wait_ms_p50", "ms", "lower"),
    Metric("core.buckets.requests_per_batch", "count", "higher"),
    Metric("pbft.commit_ms_p50", "ms", "lower"),
    Metric("core.log.deliver_lag_ms_p50", "ms", "lower"),
    Metric("net.transport.frames_per_op", "count", "lower"),
    Metric("net.transport.bytes_per_op", "B", "lower"),
    Metric("net.transport.encode_us_per_frame", "us", "lower"),
    Metric("storage.durable.append_us_p50", "us", "lower"),
    Metric("storage.durable.fsync_us_p50", "us", "lower"),
    Metric("storage.durable.fsyncs_per_op", "count", "lower"),
    Metric("storage.durable.wal_bytes_per_op", "B", "lower"),
    Metric("storage.recovery.replay_ms_per_kentry", "ms", "lower"),
    Metric("storage.recovery.catchup_s", "s", "lower"),
    Metric("core.client.sends_per_op", "count", "lower"),
    Metric("core.client.retries_per_kop", "count", "lower"),
    Metric("node.unattributed_cpu_share", "share", "lower"),
    Metric("node.cpu_share_max", "share", "lower"),
    Metric("loadgen.cpu_share", "share", "lower"),
    Metric("loadgen.late_ms_max", "ms", "lower"),
    Metric("client.latency_mean_ms", "ms", "lower"),
    Metric("client.latency_p95_ms", "ms", "lower"),
    Metric("client.latency_p99_ms", "ms", "lower"),
    Metric("client.stall_max_ms", "ms", "lower"),
    Metric("client.failed_share", "share", "lower"),
    Metric("sim.simulator.events", "count", "lower"),
    Metric("sim.simulator.events_per_cpu_s", "1/s", "higher"),
    Metric("sim.network.messages_sent", "count", "lower"),
    Metric("sim.network.bytes_sent", "B", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)


def _per_layer() -> Tuple[Metric, ...]:
    rows: List[Metric] = []
    for layer in PROBE_TABLE:
        rows.append(Metric(f"{layer}.calls_per_op", "count", "lower"))
        rows.append(Metric(f"{layer}.self_us_per_op", "us", "lower"))
    return tuple(rows) + _EXTRAS


#: Traced runs report exactly these, on every workload; a layer a workload
#: does not exercise reads 0.
PER_LAYER: Tuple[Metric, ...] = _per_layer()


def benchmark_json(run_seconds: int) -> Dict[str, object]:
    """The contents ``BENCHMARK.json`` must have for this vocabulary."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS if w.gated],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
