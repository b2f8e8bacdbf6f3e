"""Live workloads: a real 4-replica localhost cluster driven over TCP.

One load-generator process (this one) holds one ``TcpTransport`` with 16
``KVClient`` identities on it; four replica processes run the stock
``repro.net.host.node_main``.  Loopback only: **no message delay is
injected**, so every latency reported here is timers plus processor time,
not a network.  ``kill -9`` keeps the page cache, so ``live_crash`` tests
process-crash recovery, not power loss.

The launcher below is the benchmark's own (rather than
``repro.net.deploy.LiveDeployment``) for three reasons the public API does
not cover: a traced run needs a different entry point, CPU/RSS are sampled
per replica from ``/proc/<pid>``, and ``multiprocessing`` would leave its
resource tracker running after the benchmark has exited (see ``child.py``).
It uses only public names — ``LiveClusterSpec`` and ``node_main`` — and does
what ``LiveDeployment`` does: start, wait for the ports, SIGKILL, restart
over the same data directory, SIGTERM.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import pickle
import random
import shutil
import socket
import statistics
import string
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.app.kv import KVClient
from repro.core.config import ISSConfig
from repro.core.types import is_nil
from repro.crypto.signatures import KeyStore
from repro.net.clock import WallClock
from repro.net.deploy import (
    LiveClusterSpec,
    durable_entries,
    durable_prefix,
    durable_prefix_len,
    prefixes_identical,
)
from repro.net.transport import TcpTransport
from repro.storage.durable import (
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    DurableNodeStorage,
)

import child
import probes
from checks import judge_final_read
from result import RunResult, layer_rows
from stats import due_time, median_or_zero, percentile
from workloads import (
    LIVE_BATCH_FLUSH_INTERVAL,
    LIVE_CONFIG,
    LIVE_FSYNC,
    LIVE_HOST,
    LIVE_WARMUP_S,
    NUM_CLIENT_IDS,
    NUM_KEYS,
    NUM_LIVE_NODES,
    SETUP_REPS,
    LiveWorkload,
)

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Searched for four free consecutive ports; below the ephemeral range and
#: clear of 7400 / 7570, which live_smoke and bench_live_wallclock use.
_PORT_RANGE = (20000, 30000)

#: Beyond either, a run measured the load generator, not the cluster.
_LATE_LIMIT_S = 0.100
_LOADGEN_CPU_LIMIT = 0.6

#: Concurrent reads of the final read-back check.
_VERIFY_IN_FLIGHT = 64


# ------------------------------------------------------------------ launcher
def free_port_run(count: int) -> int:
    """First port of ``count`` consecutive ports that all bind right now."""
    low, high = _PORT_RANGE
    start = low + (os.getpid() * 16) % (high - low - count)
    for base in list(range(start, high - count, 16)) + list(range(low, start, 16)):
        sockets = []
        try:
            for port in range(base, base + count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sockets.append(sock)
                sock.bind((LIVE_HOST, port))
            return base
        except OSError:
            continue
        finally:
            for sock in sockets:
                sock.close()
    raise RuntimeError(f"no {count} consecutive free ports in {_PORT_RANGE}")


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_rss_peak_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Cluster:
    """Four replica processes over one ``LiveClusterSpec``."""

    def __init__(self, spec: LiveClusterSpec, dump_dir: Optional[Path] = None):
        """With ``dump_dir`` the replicas run traced and leave their probe
        tables there."""
        self.spec = spec
        self._dump_dir = dump_dir
        Path(spec.data_dir).mkdir(parents=True, exist_ok=True)
        self._spec_path = Path(spec.data_dir) / "spec.pickle"
        self._spec_path.write_bytes(pickle.dumps(spec))
        self._procs: Dict[int, subprocess.Popen] = {}
        #: CPU and peak RSS of incarnations that were killed, per node.
        self._dead_cpu_s: Dict[int, float] = {}
        self._dead_rss_mb = 0.0

    def start(self, timeout: float = 30.0) -> None:
        """Spawn every replica; return once all of them accept connections."""
        for node_id in range(self.spec.config.num_nodes):
            self._spawn(node_id)
        deadline = time.monotonic() + timeout
        for node_id in self._procs:
            self._wait_port(node_id, deadline)

    def _spawn(self, node_id: int) -> None:
        args = ["replica", self._spec_path, node_id]
        if self._dump_dir is not None:
            args.append(self._dump_dir)
        self._procs[node_id] = child.start(*args)

    def _wait_port(self, node_id: int, deadline: float) -> None:
        address = self.spec.address(node_id)
        while True:
            try:
                with socket.create_connection(address, timeout=0.25):
                    return
            except OSError:
                if time.monotonic() > deadline or self._procs[node_id].poll() is not None:
                    raise RuntimeError(f"replica {node_id} did not come up on {address}")
                time.sleep(0.02)

    def kill(self, node_id: int) -> None:
        """SIGKILL one replica, keeping its CPU and RSS for the totals."""
        process = self._procs[node_id]
        self._dead_cpu_s[node_id] = self._dead_cpu_s.get(node_id, 0.0) + _proc_cpu_s(
            process.pid
        )
        self._dead_rss_mb = max(self._dead_rss_mb, _proc_rss_peak_mb(process.pid))
        process.kill()
        child.reap(process)

    def restart(self, node_id: int, timeout: float = 30.0) -> None:
        """Boot a fresh process for ``node_id`` over its existing data dir."""
        if self._procs[node_id].poll() is None:
            raise RuntimeError(f"replica {node_id} is still running")
        self._spawn(node_id)
        self._wait_port(node_id, time.monotonic() + timeout)

    def stop(self) -> None:
        """SIGTERM every replica, escalate to SIGKILL, wait for all."""
        for process in self._procs.values():
            if process.poll() is None:
                process.terminate()
        for process in self._procs.values():
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
            child.reap(process)
        self._procs.clear()

    def cpu_s(self) -> Dict[int, float]:
        """CPU seconds per node so far, dead incarnations included."""
        return {
            node_id: self._dead_cpu_s.get(node_id, 0.0)
            + (_proc_cpu_s(process.pid) if process.poll() is None else 0.0)
            for node_id, process in self._procs.items()
        }

    def rss_peak_mb(self) -> float:
        """Peak RSS of the largest replica (any incarnation)."""
        live = [
            _proc_rss_peak_mb(process.pid)
            for process in self._procs.values()
            if process.poll() is None
        ]
        return max(live + [self._dead_rss_mb])


# ------------------------------------------------------------------- inputs
class OpSource:
    """The seeded input stream: op kind, key and value bytes, in issue order."""

    def __init__(self, seed: int, workload: LiveWorkload):
        self._rng = random.Random(seed)
        self._get_share = workload.get_share
        self._value_bytes = workload.value_bytes
        alphabet = string.ascii_letters + string.digits
        self._filler = "".join(self._rng.choices(alphabet, k=workload.value_bytes + 4096))
        self.issued = 0

    def next(self) -> Tuple[int, Optional[str]]:
        """``(key index, value)``; value ``None`` means a get.

        A value starts with ``"<key index>:<op index>:"`` — unique per op,
        and a read can be checked to have returned a value of its own key.
        """
        rng = self._rng
        index = self.issued
        self.issued += 1
        is_get = rng.random() < self._get_share
        key = rng.randrange(NUM_KEYS)
        offset = rng.randrange(4096)
        if is_get:
            return key, None
        head = f"{key}:{index}:"
        return key, head + self._filler[offset : offset + self._value_bytes - len(head)]


def _key_name(key: int) -> str:
    return f"key{key:04d}"


# ------------------------------------------------------------------ loadgen
@dataclass
class Measurement:
    """Everything one cluster lifetime produced, before it becomes metrics."""

    setup_s: List[float] = field(default_factory=list)
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    acked_in_window: int = 0
    #: Due/submit-to-done seconds of ops due/submitted inside the window.
    latencies: List[float] = field(default_factory=list)
    late_max_s: float = 0.0
    node_cpu_s: Dict[int, float] = field(default_factory=dict)
    rss_max_mb: float = 0.0
    loadgen_cpu_s: float = 0.0
    #: Acked ops over the cluster's whole life (per-op base of a traced run).
    ops_total: int = 0
    retries: int = 0
    catchup_s: float = 0.0
    violations: List[str] = field(default_factory=list)
    #: Probe targets that could not be resolved (traced runs).
    warnings: List[str] = field(default_factory=list)
    replica_table: Optional[Dict[str, object]] = None
    loadgen_table: Optional[Dict[str, object]] = None
    requests_per_batch: float = 0.0
    wal_bytes_per_node: float = 0.0
    replay_ms_per_kentry: float = 0.0


class LoadGen:
    """Drives one workload at one cluster and keeps what the checks need."""

    def __init__(
        self, workload: LiveWorkload, seed: int, seconds: float,
        cluster: Cluster, clients: List[KVClient], traced: bool,
    ):
        self.workload = workload
        self.seconds = seconds
        self.cluster = cluster
        self.clients = clients
        self.traced = traced
        self.source = OpSource(seed, workload)
        self.loop = asyncio.get_running_loop()
        self.m = Measurement(window_s=seconds)
        self.window_start = 0.0
        self.window_end = 0.0
        self._tasks: Set[asyncio.Task] = set()
        #: key -> acked puts as (start, done, value); judged at the end.
        self._puts: Dict[int, List[Tuple[float, float, str]]] = {}
        #: key -> values of puts whose outcome is unknown (timed out).
        self._maybe: Dict[int, Set[str]] = {}
        self.acked_rids: Set[Tuple[int, int]] = set()
        #: Snapshot of ``acked_rids`` taken when the victim is restarted.
        self.acked_before_restart: Set[Tuple[int, int]] = set()

    # ---------------------------------------------------------------- one op
    async def _op(self, client: KVClient, start: float) -> None:
        """Issue the next op of the stream on ``client``; ``start`` is when
        it was due (open loop) or submitted (closed loop)."""
        key, value = self.source.next()
        in_window = self.window_start <= start < self.window_end
        if in_window:
            self.m.attempted += 1
        timeout = self.workload.op_timeout_s
        try:
            if value is None:
                outcome = await client.get(_key_name(key), timeout=timeout)
            else:
                outcome = await client.put(_key_name(key), value, timeout=timeout)
        except asyncio.TimeoutError:
            if in_window:
                self.m.failed += 1
            if value is not None:
                self._maybe.setdefault(key, set()).add(value)
            return
        done = self.loop.time()
        self.m.ops_total += 1
        self.acked_rids.add((outcome.rid.client, outcome.rid.timestamp))
        if value is None:
            if outcome.value is not None and not outcome.value.startswith(f"{key}:"):
                self.m.violations.append(
                    f"get({_key_name(key)}) returned another key's value"
                )
        else:
            self._puts.setdefault(key, []).append((start, done, value))
        if in_window:
            self.m.latencies.append(done - start)
        if self.window_start <= done < self.window_end:
            self.m.acked_in_window += 1

    def _spawn_op(self, client: KVClient, start: float) -> None:
        task = self.loop.create_task(self._op(client, start))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------ the loops
    async def _open_loop(self, begin: float) -> None:
        """Ops are due every 1/rate seconds from ``begin`` to the window's
        end, whatever the cluster does; latency runs from the due time."""
        rate = self.workload.rate
        index = 0
        while True:
            now = self.loop.time()
            due = due_time(begin, rate, index)
            while due <= now:
                if due >= self.window_end:
                    return
                if due >= self.window_start:
                    self.m.late_max_s = max(self.m.late_max_s, now - due)
                self._spawn_op(self.clients[index % len(self.clients)], due)
                index += 1
                due = due_time(begin, rate, index)
            await asyncio.sleep(due - self.loop.time())

    async def _closed_loop_worker(self, client: KVClient) -> None:
        while True:
            start = self.loop.time()
            if start >= self.window_end:
                return
            await self._op(client, start)

    async def _fault_schedule(self) -> None:
        """kill -9 and restart the victim at fixed points of the window."""
        workload = self.workload
        victim = workload.victim
        await asyncio.sleep(
            self.window_start + workload.kill_at * self.seconds - self.loop.time()
        )
        await self.loop.run_in_executor(None, self.cluster.kill, victim)
        await asyncio.sleep(
            self.window_start + workload.restart_at * self.seconds - self.loop.time()
        )
        restart_began = self.loop.time()
        self.acked_before_restart = set(self.acked_rids)
        await self.loop.run_in_executor(None, self.cluster.restart, victim)
        if self.traced:
            await self._watch_catchup(victim, restart_began)

    async def _watch_catchup(self, victim: int, restart_began: float) -> None:
        """Time until the victim's durable prefix reaches where its peers
        stood when it restarted (file reads, off the loop thread)."""
        spec = self.cluster.spec
        peers = [node for node in range(spec.config.num_nodes) if node != victim]

        def frontier() -> int:
            return max(durable_prefix_len(spec, node) for node in peers)

        target = await self.loop.run_in_executor(None, frontier)
        while self.loop.time() < self.window_end:
            reached = await self.loop.run_in_executor(
                None, durable_prefix_len, spec, victim
            )
            if reached >= target:
                self.m.catchup_s = self.loop.time() - restart_began
                return
            await asyncio.sleep(0.1)

    # ------------------------------------------------------------- the run
    async def run(self) -> None:
        """Warm-up, measured window, drain, read-back check."""
        workload = self.workload
        begin = self.loop.time()
        self.window_start = begin + LIVE_WARMUP_S
        self.window_end = self.window_start + self.seconds
        fault = None
        if workload.kill_at is not None:
            fault = self.loop.create_task(self._fault_schedule())
        if workload.loop == "open":
            driver = [self.loop.create_task(self._open_loop(begin))]
        else:
            driver = [
                self.loop.create_task(
                    self._closed_loop_worker(self.clients[i % len(self.clients)])
                )
                for i in range(workload.in_flight)
            ]
        await asyncio.sleep(self.window_start - self.loop.time())
        cpu_start = self.cluster.cpu_s()
        own_cpu_start = time.process_time()
        await asyncio.sleep(self.window_end - self.loop.time())
        cpu_end = self.cluster.cpu_s()
        self.m.loadgen_cpu_s = time.process_time() - own_cpu_start
        self.m.node_cpu_s = {node: cpu_end[node] - cpu_start[node] for node in cpu_end}
        await asyncio.gather(*driver)
        while self._tasks:
            await asyncio.gather(*list(self._tasks))
        if fault is not None:
            await fault
        self.m.rss_max_mb = self.cluster.rss_peak_mb()
        await self._read_back()
        self.m.retries = sum(client.client.requests_retried for client in self.clients)

    async def _read_back(self) -> None:
        """Every key with an acked put must read back a value no acked put
        has definitely overwritten (final-state linearizability)."""
        keys = sorted(self._puts)
        position = 0

        async def reader(client: KVClient) -> None:
            nonlocal position
            while position < len(keys):
                key = keys[position]
                position += 1
                try:
                    outcome = await client.get(_key_name(key), timeout=10.0)
                except asyncio.TimeoutError:
                    self.m.violations.append(f"final get({_key_name(key)}) timed out")
                    continue
                self.m.ops_total += 1
                self.acked_rids.add((outcome.rid.client, outcome.rid.timestamp))
                problem = judge_final_read(
                    self._puts[key], self._maybe.get(key, ()), outcome.value
                )
                if problem is not None:
                    self.m.violations.append(f"{_key_name(key)} {problem}")

        await asyncio.gather(
            *[
                reader(self.clients[i % len(self.clients)])
                for i in range(_VERIFY_IN_FLIGHT)
            ]
        )


# ---------------------------------------------------------------- one pass
def _spec(workload: LiveWorkload, data_dir: Path, base_port: int) -> LiveClusterSpec:
    settings = dict(LIVE_CONFIG)
    settings.update(workload.config_overrides)
    return LiveClusterSpec(
        config=ISSConfig(**settings),
        data_dir=str(data_dir),
        base_port=base_port,
        host=LIVE_HOST,
        client_ids=tuple(range(NUM_CLIENT_IDS)),
        batch_flush_interval=LIVE_BATCH_FLUSH_INTERVAL,
        fsync=LIVE_FSYNC,
    )


@contextlib.asynccontextmanager
async def _booted(spec: LiveClusterSpec, dump_dir: Optional[Path]):
    """A running cluster with the loadgen connected and one op acked.

    Yields ``(cluster, clients, seconds from start() to that first ack)``;
    on exit the transport is closed and every replica stopped, whatever
    happened in between.  With ``dump_dir`` the replicas run traced.
    """
    loop = asyncio.get_running_loop()
    cluster = Cluster(spec, dump_dir)
    transport = None
    try:
        began = time.perf_counter()
        await loop.run_in_executor(None, cluster.start)
        clock = WallClock(seed=spec.config.random_seed)
        transport = TcpTransport(clock, peers=spec.peer_map())
        await transport.start()
        key_store = KeyStore(deployment_seed=spec.config.random_seed)
        clients = [
            KVClient(client_id, spec.config, clock, transport, key_store)
            for client_id in spec.client_ids
        ]
        await clients[0].put("setup", "first", timeout=30.0)
        yield cluster, clients, time.perf_counter() - began
    finally:
        if transport is not None:
            await transport.close()
        await loop.run_in_executor(None, cluster.stop)


async def _pass(
    workload: LiveWorkload, seed: int, seconds: float, traced: bool,
    setup_reps: int, scratch: Path, base_port: int,
) -> Measurement:
    """Boot ``setup_reps`` clusters, drive the last one, stop it, then
    audit the replicas' files."""
    setup_s: List[float] = []
    dump_dir = None
    if traced:
        dump_dir = scratch / "tables"
        dump_dir.mkdir()
    for rep in range(setup_reps - 1):
        spec = _spec(workload, scratch / f"boot{rep}", base_port)
        async with _booted(spec, dump_dir) as (_cluster, _clients, boot_s):
            setup_s.append(boot_s)
    spec = _spec(workload, scratch / "data", base_port)
    async with _booted(spec, dump_dir) as (cluster, clients, boot_s):
        setup_s.append(boot_s)
        loadgen = LoadGen(workload, seed, seconds, cluster, clients, traced)
        m = loadgen.m
        m.setup_s = setup_s
        m.ops_total = 1
        if not traced:
            await loadgen.run()
        else:
            tracer = probes.Tracer(clock=time.thread_time)
            m.warnings.extend(tracer.install())
            try:
                await loadgen.run()
            finally:
                tracer.uninstall()
            m.loadgen_table = tracer.table(cpu_s=0.0)
    _audit(spec, workload, loadgen)
    if not m.latencies:
        raise RuntimeError(f"no op completed: {m.violations}")
    m.latencies.sort()  # once; the percentile calls then re-sort in O(n)
    if traced:
        tables = probes.load_tables(dump_dir)
        if not tables:
            raise RuntimeError("the traced replicas wrote no probe table")
        m.replica_table = probes.merge_tables(tables)
        m.warnings.extend(m.replica_table["warnings"])
        _disk_figures(spec, m, scratch)
    return m


def _audit(spec: LiveClusterSpec, workload: LiveWorkload, loadgen: LoadGen) -> None:
    """Safety from the files alone: agreement, and no acked op lost."""
    m = loadgen.m
    nodes = range(spec.config.num_nodes)
    prefixes = [durable_prefix(spec, node) for node in nodes]
    if not prefixes_identical(prefixes):
        m.violations.append("durable logs disagree on a shared position")
    lost = loadgen.acked_rids - set(max(prefixes, key=len))
    if lost:
        m.violations.append(
            f"{len(lost)} acknowledged ops are in no replica's durable prefix"
        )
    if workload.kill_at is not None:
        behind = loadgen.acked_before_restart - set(prefixes[workload.victim])
        if behind:
            m.violations.append(
                f"restarted replica {workload.victim} never caught up: {len(behind)} "
                f"ops acked before its restart are missing from its durable prefix"
            )


def _disk_figures(spec: LiveClusterSpec, m: Measurement, scratch: Path) -> None:
    """Batch size, bytes on disk and replay speed, read after the run."""
    batches = [
        len(entry.requests)
        for entry in durable_entries(spec, 0).values()
        if not is_nil(entry)
    ]
    m.requests_per_batch = statistics.fmean(batches) if batches else 0.0
    sizes = []
    for node in range(spec.config.num_nodes):
        directory = Path(spec.node_dir(node))
        sizes.append(
            sum(
                (directory / name).stat().st_size
                for name in (WAL_FILENAME, SNAPSHOT_FILENAME)
                if (directory / name).exists()
            )
        )
    m.wal_bytes_per_node = statistics.fmean(sizes)
    copy = scratch / "replay"
    shutil.copytree(spec.node_dir(0), copy)
    began = time.perf_counter()
    storage = DurableNodeStorage(0, copy, fsync=LIVE_FSYNC)
    replay_s = time.perf_counter() - began
    entries = storage.durable_entry_count()
    storage.close()
    if entries:
        m.replay_ms_per_kentry = replay_s * 1e3 / (entries / 1000.0)


# ------------------------------------------------------------------ metrics
def run_live(
    workload: LiveWorkload, seed: int, seconds: float, trace: bool, scratch: Path
) -> RunResult:
    """Run one live workload; untraced, or an untraced then a traced half."""
    result = RunResult(workload=workload.name, traced=trace)
    result.note(
        "loopback, no injected message delay: latency is timers + processor time; "
        "kill -9 keeps the page cache (process crash, not power loss)"
    )
    base_port = free_port_run(NUM_LIVE_NODES)
    if not trace:
        m = asyncio.run(
            _pass(workload, seed, seconds, False, SETUP_REPS, scratch, base_port)
        )
        _collect(result, m)
        result.metrics = _end_to_end(m)
        _describe(result, m)
        return result
    half = seconds / 2
    (scratch / "untraced").mkdir()
    (scratch / "traced").mkdir()
    base = asyncio.run(
        _pass(workload, seed, half, False, 1, scratch / "untraced", base_port)
    )
    m = asyncio.run(_pass(workload, seed, half, True, 1, scratch / "traced", base_port))
    _collect(result, base)
    _collect(result, m)
    result.metrics = _per_layer(base, m)
    _describe(result, m)
    for warning in dict.fromkeys(m.warnings):
        result.note(f"warning: {warning}")
    return result


def _collect(result: RunResult, m: Measurement) -> None:
    result.attempted += m.attempted
    result.failed += m.failed
    for violation in m.violations:
        result.fail(violation)
    if m.acked_in_window < 1:
        result.fail("no op was acknowledged inside the measured window")


def _cpu_ms_per_op(m: Measurement) -> float:
    return sum(m.node_cpu_s.values()) * 1e3 / max(1, m.acked_in_window)


def _end_to_end(m: Measurement) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(m.setup_s),
        "goodput_ops_s": m.acked_in_window / m.window_s,
        "latency_p50_ms": percentile(m.latencies, 0.50) * 1e3,
        "cpu_ms_per_op": _cpu_ms_per_op(m),
        "rss_max_mb": m.rss_max_mb,
    }


def _per_layer(base: Measurement, m: Measurement) -> Dict[str, float]:
    ops = m.ops_total
    replicas, loadgen = m.replica_table, m.loadgen_table
    both = probes.merge_tables([replicas, loadgen])
    rows = layer_rows(both, ops)
    samples, counters = both["samples"], both["counters"]
    frames = max(1, counters["frames"])
    probed_s = sum(row["self_s"] for row in replicas["layers"].values())
    rows.update(
        {
            "core.buckets.queue_wait_ms_p50": median_or_zero(samples["queue_wait_s"]) * 1e3,
            "core.buckets.requests_per_batch": m.requests_per_batch,
            "pbft.commit_ms_p50": median_or_zero(samples["commit_s"]) * 1e3,
            "core.log.deliver_lag_ms_p50": median_or_zero(samples["deliver_lag_s"]) * 1e3,
            "net.transport.frames_per_op": counters["frames"] / ops,
            "net.transport.bytes_per_op": counters["frame_bytes"] / ops,
            "net.transport.encode_us_per_frame": counters["encode_s"] * 1e6 / frames,
            "storage.durable.append_us_p50": median_or_zero(samples["append_s"]) * 1e6,
            "storage.durable.fsync_us_p50": median_or_zero(samples["fsync_s"]) * 1e6,
            "storage.durable.fsyncs_per_op": len(samples["fsync_s"]) / ops,
            "storage.durable.wal_bytes_per_op": m.wal_bytes_per_node / ops,
            "storage.recovery.replay_ms_per_kentry": m.replay_ms_per_kentry,
            "storage.recovery.catchup_s": m.catchup_s,
            "core.client.sends_per_op": loadgen["counters"]["frames"] / ops,
            "core.client.retries_per_kop": m.retries * 1e3 / ops,
            "node.unattributed_cpu_share": 1.0 - probed_s / replicas["cpu_s"],
            "node.cpu_share_max": max(m.node_cpu_s.values()) / m.window_s,
            "loadgen.cpu_share": m.loadgen_cpu_s / m.window_s,
            "loadgen.late_ms_max": m.late_max_s * 1e3,
            "client.latency_mean_ms": statistics.fmean(m.latencies) * 1e3,
            "client.latency_p95_ms": percentile(m.latencies, 0.95) * 1e3,
            "client.latency_p99_ms": percentile(m.latencies, 0.99) * 1e3,
            "client.stall_max_ms": max(m.latencies) * 1e3,
            "client.failed_share": m.failed / max(1, m.attempted),
            "trace.overhead_ratio": _cpu_ms_per_op(m) / _cpu_ms_per_op(base),
        }
    )
    return rows


def _describe(result: RunResult, m: Measurement) -> None:
    result.note(
        f"window {m.window_s:.1f} s after {LIVE_WARMUP_S:.1f} s warm-up: "
        f"{m.attempted} ops attempted, {m.failed} failed, "
        f"{m.acked_in_window} acked in window, {len(m.latencies)} latency samples"
    )
    result.note(
        f"loadgen: cpu share {m.loadgen_cpu_s / m.window_s:.2f}, "
        f"max lateness {m.late_max_s * 1e3:.1f} ms, client retries {m.retries}; "
        f"busiest replica cpu share {max(m.node_cpu_s.values()) / m.window_s:.2f}"
    )
    result.note(
        f"latency ms: p50 {percentile(m.latencies, 0.5) * 1e3:.1f} "
        f"p95 {percentile(m.latencies, 0.95) * 1e3:.1f} "
        f"p99 {percentile(m.latencies, 0.99) * 1e3:.1f} "
        f"max {max(m.latencies) * 1e3:.1f}; "
        f"set-ups s: {' '.join(f'{s:.2f}' for s in m.setup_s)}"
    )
    if m.late_max_s > _LATE_LIMIT_S or m.loadgen_cpu_s / m.window_s > _LOADGEN_CPU_LIMIT:
        result.note("warning: the load generator was the bottleneck; this run measured it")
