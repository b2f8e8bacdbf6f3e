#!/usr/bin/env python3
"""Entry point of every process the benchmark starts.

    python3 child.py replica SPEC_PICKLE NODE_ID [DUMP_DIR]
    python3 child.py sim-setup WORKLOAD SEED

The runners start children with ``subprocess`` rather than
``multiprocessing``: a ``multiprocessing`` spawn context starts a resource
tracker process that ends only *after* its parent has exited, so a benchmark
run would leave a process behind.  A ``Popen`` child is the only process
there is, and ``start()`` keeps each one in ``_CHILDREN`` until it has been
waited for, so none outlives the run on any path out of it.
"""

from __future__ import annotations

import atexit
import pickle
import subprocess
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

_CHILDREN: List[subprocess.Popen] = []


def start(*args: object) -> subprocess.Popen:
    """Run this file in a fresh interpreter with ``args``."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        stdin=subprocess.DEVNULL,
    )
    _CHILDREN.append(process)
    return process


def reap(process: subprocess.Popen) -> int:
    """Wait for ``process`` to end; returns its exit code."""
    code = process.wait()
    if process in _CHILDREN:
        _CHILDREN.remove(process)
    return code


@atexit.register
def _reap_all() -> None:
    """Last resort: no child survives the interpreter that started it."""
    for process in list(_CHILDREN):
        if process.poll() is None:
            process.kill()
        reap(process)


def _replica(spec_path: str, node_id: str, dump_dir: str = "") -> None:
    spec = pickle.loads(Path(spec_path).read_bytes())
    if dump_dir:
        import probes

        probes.traced_node_main(spec, int(node_id), dump_dir)
    else:
        from repro.net.host import node_main

        node_main(spec, int(node_id))


def _sim_setup(name: str, seed: str) -> None:
    """Import the simulator and build the scenario, then exit."""
    from sim_runner import build
    from workloads import WORKLOADS_BY_NAME

    build(WORKLOADS_BY_NAME[name], int(seed))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    {"replica": _replica, "sim-setup": _sim_setup}[sys.argv[1]](*sys.argv[2:])
