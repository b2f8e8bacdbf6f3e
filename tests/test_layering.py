"""Boundary lint: protocol code must not depend on the simulator.

The transport-agnostic node boundary (``repro.runtime.api``) only holds if
nothing in the protocol layers — ``core``, ``pbft``, ``hotstuff``,
``raft``, ``consensus``, plus the shared ``runtime``, ``storage``,
``crypto`` and ``app`` layers — transitively imports ``repro.sim``.  These
tests import each protocol layer in a **fresh interpreter** and assert no
``repro.sim`` module was pulled into ``sys.modules``, so a future import
from the simulator anywhere in the dependency closure fails CI
immediately.

The simulator-side shim ``repro.sim.faults`` must keep re-exporting the
runtime classes *by identity*, not by copy — isinstance checks and pickled
golden traces rely on it.
"""

import importlib
import subprocess
import sys

import pytest

#: Protocol-layer module roots that must stay simulator-free.
PROTOCOL_MODULES = [
    "repro.core.iss",
    "repro.core.client",
    "repro.pbft.pbft",
    "repro.hotstuff.hotstuff",
    "repro.raft.raft",
    "repro.consensus.sb_consensus",
    "repro.runtime.api",
    "repro.runtime.wire",
    "repro.runtime.faults",
    "repro.storage.node_storage",
    "repro.storage.durable",
    "repro.crypto.signatures",
    "repro.app.kv",
    "repro.net.transport",
    "repro.net.host",
]


def _imported_sim_modules(imports):
    """Import ``imports`` in a fresh interpreter; return loaded sim modules."""
    script = (
        "import sys\n"
        + "".join(f"import {module}\n" for module in imports)
        + "print(sorted(m for m in sys.modules if m.startswith('repro.sim')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return eval(result.stdout.strip())  # noqa: S307 - our own printed list


def test_protocol_layers_never_import_the_simulator():
    loaded = _imported_sim_modules(PROTOCOL_MODULES)
    assert loaded == [], (
        f"protocol modules transitively imported the simulator: {loaded}; "
        "the runtime boundary (repro.runtime.api) has been breached"
    )


def test_each_protocol_root_is_independently_sim_free():
    # Import one at a time so a breach is attributed to the module that
    # introduced it, not to whichever import happened to run first.
    for module in PROTOCOL_MODULES:
        loaded = _imported_sim_modules([module])
        assert loaded == [], f"{module} transitively imports {loaded}"


def test_lazy_package_import_stays_sim_free():
    # `import repro` itself (PEP 562 lazy exports) must not load anything:
    # only touching a simulator-backed attribute may pull repro.sim in.
    script = (
        "import sys, repro\n"
        "assert not any(m.startswith('repro.sim') for m in sys.modules)\n"
        "assert not any(m.startswith('repro.core') for m in sys.modules)\n"
        "repro.ISSConfig\n"
        "assert not any(m.startswith('repro.sim') for m in sys.modules)\n"
        "print('ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "ok"


def test_sim_shims_preserve_class_identity():
    from repro.runtime.faults import CrashSpec as runtime_crash
    from repro.sim.faults import CrashSpec as sim_crash

    assert sim_crash is runtime_crash
    for removed in ("repro.sim.batching", "repro.sim.sharded"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(removed)
