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
    "repro.storage.disk",
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


#: A string that names a file (``wal.log``) or a file suffix (``.tmp``).
_FILE_NAME = re.compile(r"[\w-]*\.[A-Za-z]\w{0,4}")


def test_one_durable_file():
    """A replica's directory holds one file, ``wal.log``, and nothing
    rewrites it: no string under ``src/repro/storage/`` names another file
    (``SNAPSHOT_FILENAME``, the older layout's archive, is named once, to be
    refused), and neither disk has a ``replace``.  Nothing installs or
    materialises a whole-prefix snapshot either, inside ``storage/`` or out."""
    from repro.storage.disk import OsDisk, SimDisk
    from repro.storage.durable import SNAPSHOT_FILENAME, WAL_FILENAME

    assert not hasattr(OsDisk, "replace") and not hasattr(SimDisk, "replace")
    source_root = REPO_ROOT / "src" / "repro"
    named = {}
    for path in sorted((source_root / "storage").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _FILE_NAME.fullmatch(node.value)
            ):
                named.setdefault(node.value, []).append(
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                )
    legacy = named.pop(SNAPSHOT_FILENAME, [])
    assert set(named) <= {WAL_FILENAME}, f"files named under storage/: {named}"
    assert len(legacy) <= 1, f"{SNAPSHOT_FILENAME} named more than once: {legacy}"
    assert not (source_root / "storage" / "snapshot.py").exists()

    offenders = []
    for path in sorted(source_root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            base = ast.unparse(node.value).lower()
            if (node.attr == "install" and "snapshot" in base) or (
                node.attr == "entries"
                and (base.endswith("snapshot") or base.endswith("snapshot()"))
            ):
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert not offenders, f"whole-prefix snapshot access: {offenders}"


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


#: Recovery hardening is protocol behaviour; these ``ISSConfig`` names are
#: vestigial single-value fields kept for the frozen benchmark.
VESTIGIAL_RECOVERY_FIELDS = (
    "vc_recovery",
    "view_change_jitter",
    "stalled_catchup_grace",
    "client_retry_backoff",
    "client_retry_jitter",
)


def test_recovery_hardening_knobs_stay_gone():
    """Nothing under ``src/repro`` but ``core/config.py`` names the five
    vestigial recovery fields: no code path may branch on them again."""
    source_root = REPO_ROOT / "src" / "repro"
    config = source_root / "core" / "config.py"
    pattern = re.compile("|".join(VESTIGIAL_RECOVERY_FIELDS))
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}"
        for path in sorted(source_root.rglob("*.py"))
        if path != config
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, f"recovery hardening knobs referenced outside config: {offenders}"


def test_nothing_below_the_protocols_uses_pickle():
    """Bytes from a socket or a data directory reach no deserialiser but
    :mod:`repro.runtime.codec`: ``pickle`` is not named anywhere under
    ``net/``, ``storage/`` or ``runtime/``."""
    source_root = REPO_ROOT / "src" / "repro"
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}"
        for package in ("net", "storage", "runtime")
        for path in sorted((source_root / package).rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "pickle" in line.lower()
    ]
    assert not offenders, f"pickle named below the protocols: {offenders}"


def test_the_application_has_no_payload_codec_of_its_own():
    """Operations are :mod:`repro.runtime.codec` types: nothing under
    ``app/`` imports ``struct``, ``json`` or ``pickle``, so no second
    payload format can grow there."""
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "app").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {module}"
                for module in modules
                if module.split(".")[0] in ("struct", "json", "pickle")
            ]
    assert not offenders, f"a second payload codec under app/: {offenders}"


#: ``pathlib.Path`` methods that touch the file system.
_PATH_IO_METHODS = {
    "exists", "iterdir", "mkdir", "open", "read_bytes", "read_text", "rename",
    "rmdir", "stat", "touch", "unlink", "write_bytes", "write_text",
}


def test_only_the_disk_module_touches_files_under_storage():
    """``storage/`` reaches the file system through its ``Disk`` seam
    (append, fsync, truncate, size, read): no module under
    ``src/repro/storage/`` but ``disk.py`` imports ``os``, ``io`` or
    ``shutil``, calls ``open(`` or calls a ``Path`` I/O method."""
    storage = REPO_ROOT / "src" / "repro" / "storage"
    offenders = []
    for path in sorted(storage.rglob("*.py")):
        if path.name == "disk.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(REPO_ROOT)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                modules = []
            if any(module.split(".")[0] in ("os", "io", "shutil") for module in modules):
                offenders.append(where)
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and func.attr in _PATH_IO_METHODS
                ):
                    offenders.append(where)
    assert not offenders, f"file system access outside storage/disk.py: {offenders}"


def test_settings_nothing_varies_stay_gone():
    """A setting no caller varies is a constant, and the simulated network
    drops messages only through crashes, partitions and link faults."""
    import dataclasses

    from repro.core.config import ISSConfig, NetworkConfig, WorkloadConfig
    from repro.harness.runner import Deployment
    from repro.sim.chaos import DROP_CAUSES
    from repro.sim.network import Network

    network_fields = {field.name for field in dataclasses.fields(NetworkConfig)}
    assert not network_fields & {"drop_rate", "processing_delay"}
    iss_fields = {field.name for field in dataclasses.fields(ISSConfig)}
    assert "signature_size" not in iss_fields
    assert not [name for name in iss_fields if name.startswith("backoff_")]
    assert not hasattr(Network, "add_link_filter")
    assert not {"link-filter", "random"} & set(DROP_CAUSES)
    with pytest.raises(ValueError):
        Deployment(
            ISSConfig(num_nodes=4),
            workload=WorkloadConfig(num_clients=1, duration=1.0),
            recovery_poll=0.5,
        )


#: The strong-quorum arithmetic: ``2 * f + 1``, ``(n + f + 2) // 2`` and
#: the crash model's ``n // 2 + 1``.
_QUORUM_FORMULAS = re.compile(
    r"2 \* [\w.]*(?:max_faulty|\bf\b)[\w.]* \+ 1|\+ 2\) // 2|// 2 \+ 1"
)


def test_one_membership_path():
    """A static deployment is the one-view case of dynamic membership: no
    switch turns the tracker on, no code tests whether it exists, and the
    quorum sizes are computed in ``core/membership.py`` only."""
    switches, fallbacks, formulas = [], [], set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        where = str(path.relative_to(REPO_ROOT / "src" / "repro"))
        text = path.read_text()
        if "membership_enabled" in text:
            switches.append(where)
        if re.search(r"membership is (?:not )?None", text):
            fallbacks.append(where)
        if _QUORUM_FORMULAS.search(text):
            formulas.add(where)
    assert not switches, f"membership_enabled in {switches}"
    assert not fallbacks, f"a membership-is-None fallback in {fallbacks}"
    assert formulas == {"core/membership.py"}, formulas


def test_no_unused_imports():
    """Every module-level import under ``src/repro`` (package ``__init__``
    re-exports and ``from __future__`` aside) is referenced as a name in
    its module or listed in the module's ``__all__``."""
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used |= {entry.value for entry in node.value.elts}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            offenders += [
                f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {alias.name}"
                for alias in node.names
                if (alias.asname or alias.name).split(".")[0] not in used
            ]
    assert not offenders, f"unused imports: {offenders}"


def test_a_run_is_read_once():
    """A finished run's fault diagnostics are read from its objects by
    ``scenarios.row``: the report carries no per-fault section and the
    deployment builds no ``_*_stats`` digest of them."""
    import dataclasses
    import inspect

    from repro.harness.runner import Deployment
    from repro.metrics.collector import MetricsCollector, RunReport

    fields = {field.name for field in dataclasses.fields(RunReport)}
    assert not fields & {"byzantine", "client_abuse", "partitions", "membership"}
    parameters = list(inspect.signature(MetricsCollector.report).parameters)
    assert parameters == ["self", "duration", "extra"]
    stats_builders = [
        name for name in vars(Deployment) if name.startswith("_") and name.endswith("_stats")
    ]
    assert not stats_builders, f"Deployment still digests a run: {stats_builders}"


def test_one_record_of_committed_requests():
    """A replica's client watermarks are its one record of which requests
    it committed: the bucket pool keeps no delivered set beside them and
    no garbage collector empties one."""
    from repro.core.buckets import BucketPool

    pool = BucketPool(num_buckets=4)
    assert not any(isinstance(value, (set, frozenset)) for value in vars(pool).values())
    names = re.compile(r"\b(?:is_delivered|forget_delivered_below|client_state_gc_entries)\b")
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if names.search(path.read_text())
    ]
    assert not offenders, f"a second record of committed requests in {offenders}"
    assert not hasattr(BucketPool, "delivered")


#: Attribute names that end a node's catch-up mode from outside it.
_CATCHUP_EXIT = re.compile(r"(?:end|exit|leave|stop|finish)\w*catch_?up")


def test_a_replica_ends_its_own_catchup():
    """Catch-up mode is the replica's own decision: the measuring watcher
    ``watch_catchup`` is defined only under ``harness/`` and nothing under
    ``net/`` or ``storage/`` names it, and no module outside ``core/``
    calls a catch-up exit or clears the mode flag."""
    source_root = REPO_ROOT / "src" / "repro"
    definitions, polls, exits = [], [], []
    for path in sorted(source_root.rglob("*.py")):
        where = path.relative_to(source_root)
        package = where.parts[0]
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "watch_catchup":
                definitions.append(str(where))
            if package in ("net", "storage") and (
                (isinstance(node, ast.Name) and node.id == "watch_catchup")
                or (
                    isinstance(node, ast.ImportFrom)
                    and any(alias.name == "watch_catchup" for alias in node.names)
                )
            ):
                polls.append(f"{where}:{node.lineno}")
            if (
                package != "core"
                and isinstance(node, ast.Attribute)
                and (_CATCHUP_EXIT.search(node.attr) or node.attr == "_catchup_aggressive")
            ):
                exits.append(f"{where}:{node.lineno}: {node.attr}")
    assert definitions and all(d.startswith("harness/") for d in definitions), definitions
    assert not polls, f"watch_catchup reached from net/ or storage/: {polls}"
    assert not exits, f"catch-up ended from outside core/: {exits}"


#: Replica methods that start a catch-up or prod SB instances.
_REPLICA_STEERING = re.compile(r"^_?(?:begin_recovery_catchup|nudge_stalled_instances|nudge)$")


def test_the_heal_hook_steers_no_replica():
    """A replica notices a healed partition itself (``ISSNode`` hears a
    peer again after a view change timeout of silence): nothing under
    ``harness/`` or ``sim/`` starts a catch-up or nudges an instance, and
    HotStuff keeps the no-op nudge of ``SBInstance``."""
    from repro.core.sb import SBInstance
    from repro.hotstuff.hotstuff import HotStuffSB

    source_root = REPO_ROOT / "src" / "repro"
    calls = []
    for package in ("harness", "sim"):
        for path in sorted((source_root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and _REPLICA_STEERING.match(node.attr):
                    calls.append(f"{path.relative_to(source_root)}:{node.lineno}: {node.attr}")
    assert not calls, f"a harness hook steers a replica: {calls}"
    assert HotStuffSB.nudge is SBInstance.nudge
