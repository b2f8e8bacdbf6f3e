"""repro — reproduction of "State-Machine Replication Scalability Made Simple" (ISS).

The package implements the paper's contribution (the ISS multiplexing
construction and the Sequenced Broadcast abstraction), the three ordering
protocols it wraps (PBFT, chained HotStuff, Raft), the Mir-BFT and
single-leader baselines, and two interchangeable deployment backends behind
one node boundary: the simulated WAN substrate plus experiment harness used
to reproduce every table and figure of the evaluation, and a live
asyncio/TCP backend that runs the same protocol objects as real processes
over real sockets.

The top level re-exports lazily (PEP 562): importing ``repro`` — or any
protocol submodule, which implicitly imports its parent package — pulls in
no backend.  ``repro.core``/``repro.pbft``/... stay importable without
``repro.sim`` ever loading (asserted by ``tests/test_layering.py``), and the
CLI entry points only pay for the modules they touch.

Quick start::

    from repro import Deployment, ISSConfig, WorkloadConfig

    config = ISSConfig(num_nodes=4, protocol="pbft", epoch_length=16)
    workload = WorkloadConfig(num_clients=4, total_rate=200, duration=10)
    report = Deployment(config, workload=workload).run().report
    print(report.throughput, report.latency.mean)
"""

import importlib

#: Public name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "ISSConfig": ".core.config",
    "NetworkConfig": ".core.config",
    "WorkloadConfig": ".core.config",
    "paper_config": ".core.config",
    "PROTOCOL_PBFT": ".core.config",
    "PROTOCOL_HOTSTUFF": ".core.config",
    "PROTOCOL_RAFT": ".core.config",
    "POLICY_SIMPLE": ".core.config",
    "POLICY_BACKOFF": ".core.config",
    "POLICY_BLACKLIST": ".core.config",
    "Request": ".core.types",
    "RequestId": ".core.types",
    "Batch": ".core.types",
    "NIL": ".core.types",
    "DeliveredRequest": ".core.types",
    "ISSNode": ".core.iss",
    "Client": ".core.client",
    "Deployment": ".harness.runner",
    "DeploymentResult": ".harness.runner",
    "RunReport": ".metrics.collector",
    "LatencySummary": ".metrics.collector",
    "MetricsCollector": ".metrics.collector",
    "CrashSpec": ".runtime.faults",
    "RestartSpec": ".runtime.faults",
    "StragglerSpec": ".runtime.faults",
    "ByzantineSpec": ".runtime.faults",
    "MaliciousClientSpec": ".runtime.faults",
    "MembershipSpec": ".runtime.faults",
    "MEMBER_ADD": ".runtime.faults",
    "MEMBER_REMOVE": ".runtime.faults",
    "MEMBER_EVICT_DETECTED": ".runtime.faults",
    "BYZ_EQUIVOCATE": ".runtime.faults",
    "BYZ_CENSOR": ".runtime.faults",
    "BYZ_INVALID_VOTES": ".runtime.faults",
    "BYZ_REPLAY": ".runtime.faults",
    "CLIENT_WATERMARK_ABUSE": ".runtime.faults",
    "CLIENT_DUPLICATE_FLOOD": ".runtime.faults",
    "CLIENT_BUCKET_BIAS": ".runtime.faults",
    "CLIENT_FORGED_SIGNATURE": ".runtime.faults",
    "ObsConfig": ".obs",
    "PartitionSpec": ".runtime.faults",
    "LinkFaultSpec": ".runtime.faults",
    "AbusiveClient": ".sim.client_adversary",
    "LiveDeployment": ".net.deploy",
    "LiveClusterSpec": ".net.deploy",
}

__version__ = "1.0.0"

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    """Resolve a public name from its defining submodule on first use."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
