"""Boundary lint: protocol code must not depend on the simulator.

The transport-agnostic node boundary (``repro.runtime.api``) only holds if
nothing in the protocol layers — ``core``, ``pbft``, ``hotstuff`` and
``raft``, plus the shared ``runtime``, ``storage``, ``crypto`` and ``app``
layers — transitively imports ``repro.sim``.  These tests import each
protocol layer in a **fresh interpreter** and assert no ``repro.sim``
module was pulled into ``sys.modules``, so a future import from the
simulator anywhere in the dependency closure fails CI immediately.

The simulator-side shims are retired: the fault specifications are
imported from ``repro.runtime.faults`` everywhere, ``repro.sim.faults``
holds the ``FaultInjector`` only, and nothing outside ``src/repro/sim/``
may reach a spec name through the simulator package again.  The chaos
specs (``PartitionSpec``, ``LinkFaultSpec``, ``symmetric_split``) moved
out of ``repro.sim.chaos`` last and are held to the stricter rule: one
import home, ``repro.runtime.faults``, everywhere including ``sim/``.
"""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.runtime.faults as runtime_faults

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Protocol-layer module roots that must stay simulator-free.
PROTOCOL_MODULES = [
    "repro.core.iss",
    "repro.core.client",
    "repro.pbft.pbft",
    "repro.hotstuff.hotstuff",
    "repro.raft.raft",
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


#: Every public name of ``repro.runtime.faults``: the spec dataclasses and
#: the ``BYZ_*``/``CLIENT_*``/``MEMBER_*``/``CRASH_*`` constants.
SPEC_NAMES = {name for name in vars(runtime_faults) if not name.startswith("_")}

#: The specs that used to live in ``repro.sim.chaos``.
CHAOS_SPEC_NAMES = {"PartitionSpec", "LinkFaultSpec", "symmetric_split"}

_FROM_IMPORT_RE = re.compile(r"from\s+([\w.]+)\s+import\s+(\([^)]*\)|[^\n]*)")


def _from_imports(path):
    """``(module, imported names)`` of every from-import in ``path`` (relative
    modules without their dots; Markdown code blocks scanned textually)."""
    text = path.read_text()
    if path.suffix == ".py":
        return [
            (node.module or "", [alias.name for alias in node.names])
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom)
        ]
    return [
        (module.lstrip("."), re.findall(r"\w+", names))
        for module, names in _FROM_IMPORT_RE.findall(text)
    ]


def _spec_names_imported_via_sim(path):
    """Spec names ``path`` imports from ``repro.sim`` / ``repro.sim.faults``."""
    return {
        name
        for module, names in _from_imports(path)
        if module in ("repro.sim", "repro.sim.faults", "sim", "sim.faults")
        for name in names
    } & SPEC_NAMES


def _chaos_specs_imported_elsewhere(path):
    """Chaos-spec names ``path`` imports from anywhere but
    ``repro.runtime.faults`` (the lazy ``from repro import X`` is fine: it
    resolves there too)."""
    return {
        name
        for module, names in _from_imports(path)
        if module != "repro" and not module.endswith("runtime.faults")
        for name in names
    } & CHAOS_SPEC_NAMES


def test_sim_shims_are_retired():
    for removed in ("repro.sim.batching", "repro.sim.sharded"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(removed)
    # No re-export either: the names are not reachable through the simulator.
    import repro.sim
    import repro.sim.chaos

    for name in CHAOS_SPEC_NAMES:
        assert not hasattr(repro.sim.chaos, name), name
        assert not hasattr(repro.sim, name), name
    files = [REPO_ROOT / "README.md", REPO_ROOT / "PERF.md"]
    for folder, pattern in (
        ("src", "*.py"), ("tests", "*.py"), ("benchmarks", "*.py"),
        ("examples", "*.py"), ("docs", "*.md"),
    ):
        files += sorted((REPO_ROOT / folder).rglob(pattern))
    sim_package = REPO_ROOT / "src" / "repro" / "sim"
    frozen = REPO_ROOT / "benchmarks" / "e2e"
    offenders = {
        str(path.relative_to(REPO_ROOT)): sorted(names)
        for path in files
        if sim_package not in path.parents and frozen not in path.parents
        for names in [_spec_names_imported_via_sim(path)]
        if names
    }
    assert not offenders, (
        f"fault specs must be imported from repro.runtime.faults: {offenders}"
    )
    chaos_offenders = {
        str(path.relative_to(REPO_ROOT)): sorted(names)
        for path in files
        if frozen not in path.parents
        for names in [_chaos_specs_imported_elsewhere(path)]
        if names
    }
    assert not chaos_offenders, (
        f"PartitionSpec/LinkFaultSpec/symmetric_split have one import home, "
        f"repro.runtime.faults: {chaos_offenders}"
    )


def test_sb_from_consensus_reference_is_retired():
    """PBFT, HotStuff and Raft are the SB implementations; the BRB +
    consensus construction and the heartbeat failure detector that served
    only it are gone."""
    for removed in ("repro.consensus", "repro.fd"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(removed)


def test_fault_specs_module_is_bottom_layer():
    """``runtime/faults.py`` is pure data: nothing from the simulator, the
    protocol core or the harness, so every backend can import it."""
    source = (REPO_ROOT / "src" / "repro" / "runtime" / "faults.py").read_text()
    imported = [
        "." * node.level + (node.module or "")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
    ] + [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    forbidden = [
        module
        for module in imported
        if re.search(r"(^|\.)(sim|core|harness)(\.|$)", module)
    ]
    assert not forbidden, f"runtime/faults.py imports upward: {forbidden}"
    loaded = _imported_sim_modules(["repro.runtime.faults"])
    assert loaded == []


def test_whole_prefix_snapshot_api_is_gone():
    """A checkpoint seals a run (``SnapshotStore.seal``); nothing installs or
    materialises the whole prefix any more, inside or outside ``storage/``."""
    from dataclasses import fields

    from repro.storage.snapshot import Snapshot, SnapshotStore

    assert not hasattr(SnapshotStore, "install")
    assert "entries" not in {field.name for field in fields(Snapshot)}
    source_root = REPO_ROOT / "src" / "repro"
    offenders = []
    for path in sorted(source_root.rglob("*.py")):
        if source_root / "storage" in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            base = ast.unparse(node.value).lower()
            if (node.attr == "install" and "snapshot" in base) or (
                node.attr == "entries"
                and (base.endswith("snapshot") or base.endswith("snapshot()"))
            ):
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert not offenders, f"whole-prefix snapshot access outside storage/: {offenders}"


def test_log_does_not_import_storage():
    """The sealed archive reaches ``Log`` as a plain object (``entry_at`` /
    ``entries_of``) handed in by ``ISSNode``; ``core/log.py`` must not know
    the storage package."""
    source = (REPO_ROOT / "src" / "repro" / "core" / "log.py").read_text()
    imported = [
        "." * node.level + (node.module or "")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
    ] + [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert not [module for module in imported if "storage" in module], imported
