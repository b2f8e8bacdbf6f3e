"""Outside-in timing probes: the benchmark's own wrappers around the layers.

Nothing under ``src/`` knows about this file.  A traced run resolves every
entry of :data:`PROBE_TABLE` *by name at run time*, replaces the function
with a timing wrapper, and afterwards reads two numbers per layer: how
often the layer was entered and its *self* time — the span's duration
minus the part its child spans cover, so nested layers (``core.iss`` calls
``pbft`` calls ``crypto``) are each charged only their own work and the
self times add up to the probed total.

A target that no longer exists is skipped with a warning: later changes
may rename internals, and the untraced run — the one end-to-end numbers
come from — never imports this module's wrappers at all.

A few targets also carry a *tap*: a callback that sees the call's
arguments and result and derives the named latency extras (queue wait,
commit latency, delivery lag, frame sizes, WAL append and fsync time)
from outside, by matching request ids and sequence numbers across calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import types
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: layer (module name) -> the public functions whose calls enter it.
PROBE_TABLE: Dict[str, Tuple[str, ...]] = {
    "core.client": (
        "repro.core.client:Client.submit",
        "repro.core.client:Client.on_message",
    ),
    "core.iss": ("repro.core.iss:ISSNode.on_message",),
    "core.validation": ("repro.core.validation:RequestValidator.is_valid",),
    "core.buckets": (
        "repro.core.buckets:BucketPool.add_request",
        "repro.core.buckets:BucketPool.cut_batch",
        "repro.core.buckets:BucketPool.mark_delivered",
    ),
    "pbft": ("repro.pbft.pbft:PbftSB.handle_message",),
    "core.log": (
        "repro.core.log:Log.commit",
        "repro.core.log:Log.advance_delivery",
    ),
    "core.checkpoint": (
        "repro.core.checkpoint:CheckpointProtocol.handle_message",
        "repro.core.checkpoint:CheckpointProtocol.local_epoch_complete",
    ),
    "crypto": (
        "repro.crypto.signatures:KeyStore.sign",
        "repro.crypto.signatures:KeyStore.verify",
        "repro.crypto.signatures:KeyStore.verify_digest",
    ),
    "net.transport": (
        "repro.net.transport:TcpTransport.send",
        "repro.net.transport:encode_frame",
    ),
    "storage.durable": (
        "repro.storage.node_storage:NodeStorage.record_commit",
        "repro.storage.node_storage:NodeStorage.record_epoch_start",
        "repro.storage.node_storage:NodeStorage.record_stable_checkpoint",
    ),
    "app.kv": ("repro.app.kv:KVApp.on_deliver",),
    "runtime.wire": ("repro.runtime.wire:MessageBatcher.enqueue",),
    "sim.network": (
        "repro.sim.network:Network.send",
        "repro.sim.network:Network.multicast",
    ),
    "sim.simulator": ("repro.sim.simulator:Simulator.run",),
    "metrics": (
        "repro.metrics.collector:MetricsCollector.record_delivery",
        "repro.metrics.collector:MetricsCollector.record_client_completion",
    ),
}

#: Targets whose calls also feed a tap (method name on :class:`Tracer`).
TAPS: Dict[str, str] = {
    "repro.core.buckets:BucketPool.add_request": "_tap_add_request",
    "repro.core.buckets:BucketPool.cut_batch": "_tap_cut_batch",
    "repro.core.buckets:BucketPool.mark_delivered": "_tap_mark_delivered",
    "repro.core.log:Log.commit": "_tap_commit",
    "repro.core.log:Log.advance_delivery": "_tap_advance_delivery",
    "repro.net.transport:encode_frame": "_tap_encode_frame",
    "repro.storage.node_storage:NodeStorage.record_commit": "_tap_record_commit",
}


def resolve(target: str) -> Tuple[object, str, Callable]:
    """``"pkg.mod:Class.attr"`` -> ``(owner, attr, plain function)``.

    Raises ``LookupError`` when the module, the owner or the attribute is
    gone, or when the attribute is not a plain Python function (wrapping a
    static/class method or a builtin would change how it binds).
    """
    module_name, _, path = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
        *parents, leaf = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        function = inspect.getattr_static(owner, leaf)
    except (ImportError, AttributeError) as error:
        raise LookupError(f"{target}: {error}") from error
    if not isinstance(function, types.FunctionType):
        raise LookupError(f"{target}: not a plain function")
    return owner, leaf, function


class Tracer:
    """Per-process probe state: layer table, tap samples, installed patches.

    ``clock`` times the spans.  Replicas share two cores with four other
    processes, so they use the thread CPU clock (a span that was
    pre-empted must not be charged the wait, or self times exceed the
    process's CPU); the single-process simulator uses the cheaper
    monotonic clock.  Taps always use the monotonic clock: queue wait and
    fsync are waits, not work.
    """

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        #: layer -> [calls, self seconds]; the lists are captured by the
        #: wrappers, so :meth:`reset` clears them in place.
        self.layers: Dict[str, List[float]] = {}
        #: Child-span seconds accumulated per open span (the span stack).
        self._stack: List[float] = []
        self.samples: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self._added_at: Dict[object, float] = {}
        self._cut_at: Dict[object, float] = {}
        self._committed_at: Dict[int, float] = {}
        self.reset()

    def reset(self) -> None:
        """Zero every table without disturbing installed wrappers."""
        for cell in self.layers.values():
            cell[0] = 0
            cell[1] = 0.0
        self.samples = {
            name: []
            for name in (
                "queue_wait_s", "commit_s", "deliver_lag_s", "append_s", "fsync_s",
            )
        }
        self.counters = {"frames": 0, "frame_bytes": 0, "encode_s": 0.0}
        self._added_at.clear()
        self._cut_at.clear()
        self._committed_at.clear()

    # ------------------------------------------------------------- wrapping
    def wrap(self, function: Callable, layer: str, tap: Optional[Callable] = None) -> Callable:
        """Return ``function`` wrapped in a span charged to ``layer``."""
        cell = self.layers.setdefault(layer, [0, 0.0])
        stack = self._stack
        clock = self.clock

        if tap is None:

            @functools.wraps(function)
            def probe(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    span = clock() - start
                    children = stack.pop()
                    cell[0] += 1
                    cell[1] += span - children
                    if stack:
                        stack[-1] += span

            return probe

        wall = time.perf_counter

        @functools.wraps(function)
        def tapped_probe(*args, **kwargs):
            stack.append(0.0)
            wall_start = wall()
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                cell[0] += 1
                cell[1] += span - children
                if stack:
                    stack[-1] += span
            tap(args, result, wall_start, wall())
            return result

        return tapped_probe

    def install(self, table: Optional[Dict[str, Iterable[str]]] = None) -> List[str]:
        """Patch every resolvable target; return one warning per missing one."""
        warnings = []
        for layer, targets in (PROBE_TABLE if table is None else table).items():
            for target in targets:
                try:
                    owner, leaf, function = resolve(target)
                except LookupError as error:
                    warnings.append(f"probe dropped ({layer}): {error}")
                    continue
                tap_name = TAPS.get(target)
                tap = getattr(self, tap_name) if tap_name else None
                setattr(owner, leaf, self.wrap(function, layer, tap))
                self._patched.append((owner, leaf, function))
        return warnings

    def install_fsync_probe(self) -> None:
        """Time ``os.fsync`` (a builtin, so outside the table's rules)."""
        original = os.fsync
        wall = time.perf_counter

        def timed_fsync(fd):
            start = wall()
            try:
                return original(fd)
            finally:
                # Looked up per call: reset() replaces the sample lists.
                self.samples["fsync_s"].append(wall() - start)

        os.fsync = timed_fsync
        self._patched.append((os, "fsync", original))

    def uninstall(self) -> None:
        """Restore every patched attribute (in-process simulator runs)."""
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    # ----------------------------------------------------------------- taps
    # Each tap receives (args, result, wall_start, wall_end) of one call.
    def _tap_add_request(self, args, _result, _start, end) -> None:
        self._added_at.setdefault(args[1].rid, end)

    def _tap_cut_batch(self, _args, result, _start, end) -> None:
        if not result:
            return
        waits = self.samples["queue_wait_s"]
        added_at = self._added_at
        for request in result:
            added = added_at.pop(request.rid, None)
            if added is not None:
                waits.append(end - added)
        self._cut_at[result[0].rid] = end

    def _tap_mark_delivered(self, args, _result, _start, _end) -> None:
        # Non-leaders queue every request too but never cut it.
        self._added_at.pop(args[1].rid, None)

    def _tap_commit(self, args, result, _start, end) -> None:
        if not result:
            return
        sn, entry = args[1], args[2]
        self._committed_at[sn] = end
        requests = getattr(entry, "requests", None)
        if requests:
            cut = self._cut_at.pop(requests[0].rid, None)
            if cut is not None:
                self.samples["commit_s"].append(end - cut)

    def _tap_advance_delivery(self, _args, result, _start, end) -> None:
        committed_at = self._committed_at
        lags = self.samples["deliver_lag_s"]
        last_sn = None
        for delivered in result:
            sn = delivered.batch_sn
            if sn != last_sn:
                last_sn = sn
                committed = committed_at.pop(sn, None)
                if committed is not None:
                    lags.append(end - committed)

    def _tap_encode_frame(self, _args, result, start, end) -> None:
        counters = self.counters
        counters["frames"] += 1
        counters["frame_bytes"] += len(result)
        counters["encode_s"] += end - start

    def _tap_record_commit(self, _args, _result, start, end) -> None:
        self.samples["append_s"].append(end - start)

    # ---------------------------------------------------------------- output
    def table(self, cpu_s: float, warnings: Iterable[str] = ()) -> Dict[str, object]:
        """JSON-ready snapshot of everything recorded."""
        return {
            "layers": {
                layer: {"calls": cell[0], "self_s": cell[1]}
                for layer, cell in self.layers.items()
            },
            "samples": self.samples,
            "counters": self.counters,
            "cpu_s": cpu_s,
            "warnings": list(warnings),
        }


def merge_tables(tables: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Sum layer rows and counters, concatenate samples, over processes."""
    merged: Dict[str, object] = {
        "layers": {}, "samples": {}, "counters": {}, "cpu_s": 0.0, "warnings": [],
    }
    for table in tables:
        for layer, row in table["layers"].items():
            into = merged["layers"].setdefault(layer, {"calls": 0, "self_s": 0.0})
            into["calls"] += row["calls"]
            into["self_s"] += row["self_s"]
        for name, values in table["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
        for name, value in table["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["cpu_s"] += table["cpu_s"]
        for warning in table["warnings"]:
            if warning not in merged["warnings"]:
                merged["warnings"].append(warning)
    return merged


def traced_node_main(spec, node_id: int, dump_dir: str) -> None:
    """Replica main of a traced run (``child.py`` calls it).

    Installs the probes, then runs the stock ``repro.net.host.node_main``.
    ``node_main`` returns on SIGTERM, and the table is written then — a
    replica killed with SIGKILL leaves none, which is the point of SIGKILL.
    """
    from repro.net.host import node_main

    tracer = Tracer(clock=time.thread_time)
    warnings = tracer.install()
    tracer.install_fsync_probe()
    cpu_start = time.process_time()
    try:
        node_main(spec, node_id)
    finally:
        table = tracer.table(time.process_time() - cpu_start, warnings)
        path = Path(dump_dir) / f"node{node_id}.{os.getpid()}.json"
        path.write_text(json.dumps(table))


def load_tables(dump_dir: Path) -> List[Dict[str, object]]:
    """Read back every table the replicas of one traced run wrote."""
    return [
        json.loads(path.read_text())
        for path in sorted(dump_dir.glob("node*.json"))
    ]
