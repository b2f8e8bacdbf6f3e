"""Standing invariants every run must satisfy, whatever the scenario.

The golden gates, the scenario fuzzer and the integration tests all
assert the same safety properties — delivered prefixes agree,
no request is delivered twice, forged signatures never outnumber the
rejections that caught them.  This module owns those checks once, so a
new gate cannot quietly redefine what (say) "no double delivery" means.

Two layers:

* per-run checks (:func:`check_invariants`) — safety properties of one
  :class:`~repro.harness.runner.DeploymentResult`;
* cross-run equivalence (:func:`check_runs_equivalent`) — the same-seed
  determinism contract: identical delivered traces per node, identical
  event/message counters, identical completion figures.

All checkers return a list of human-readable violation strings (empty =
clean).
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

from ..core.types import Batch, is_nil
from ..sim.client_adversary import AbusiveClient


def delivered_trace(node) -> List[Tuple[int, str]]:
    """A node's delivered sequence as ``(sn, entry-digest-hex | "nil")``.

    The canonical shape every gate digests into its ``trace_sha256`` pin —
    owned here so the gates cannot drift into measuring different things.
    """
    trace: List[Tuple[int, str]] = []
    for sn in range(node.log.first_undelivered):
        entry = node.log.entry(sn)
        trace.append((sn, "nil" if is_nil(entry) else entry.digest().hex()))
    return trace


def trace_sha256(node) -> str:
    """The ``sha256(repr(delivered_trace(node)))`` digest the gates pin."""
    return hashlib.sha256(repr(delivered_trace(node)).encode()).hexdigest()


def traces_agree(traces: Sequence[List[object]]) -> bool:
    """Do the traces agree on every position any two of them share?

    The one prefix-agreement oracle (SMR safety): every trace must be a
    prefix of the longest, which is equivalent to pairwise agreement on
    shared positions.  Works over any per-position sequence — the
    :func:`delivered_trace` shape, or the request-id prefixes a live
    cluster's audit reads off disk.
    """
    reference = max(traces, key=len, default=[])
    return all(trace == reference[: len(trace)] for trace in traces)


def delivered_rids(node) -> List[object]:
    """Request ids in the node's delivered prefix, in delivery order.

    Nil entries contribute nothing; a request id appearing twice in this
    list is a double delivery (total-order violation).
    """
    return [
        request.rid
        for sn in range(node.log.first_undelivered)
        for entry in [node.log.entry(sn)]
        if isinstance(entry, Batch)
        for request in entry.requests
    ]


def check_no_double_delivery(nodes) -> List[str]:
    """No node's delivered prefix may contain the same request twice."""
    violations = []
    for node in nodes:
        rids = delivered_rids(node)
        if len(rids) != len(set(rids)):
            dupes = len(rids) - len(set(rids))
            violations.append(
                f"node {node.node_id}: {dupes} duplicate request(s) in the "
                f"delivered prefix"
            )
    return violations


def check_prefix_identity(nodes) -> List[str]:
    """Live nodes must agree on the common prefix of their delivered logs.

    Crashed nodes are skipped (their incarnation stopped mid-prefix); for
    every live pair the shorter delivered trace must be a prefix of the
    longer one, entry digests included.
    """
    live = [node for node in nodes if not node.crashed]
    if len(live) < 2:
        return []
    reference = max(live, key=lambda node: node.log.first_undelivered)
    ref_trace = delivered_trace(reference)
    return [
        f"node {node.node_id}: delivered prefix diverges from node "
        f"{reference.node_id} within the first {node.log.first_undelivered} entries"
        for node in live
        if not traces_agree([delivered_trace(node), ref_trace])
    ]


def check_completed_within_submitted(report) -> List[str]:
    """A run can never complete more requests than were submitted."""
    if report.completed > report.submitted:
        return [
            f"completed {report.completed} requests but only "
            f"{report.submitted} were submitted"
        ]
    return []


def check_rejections_cover_forgeries(result) -> List[str]:
    """Forged signatures must be caught: rejections ≥ forged submissions.

    Every forged-signature request an abusive client managed to send must
    show up as at least one invalid-signature rejection somewhere in the
    cluster (nodes validate independently, so rejections typically exceed
    forgeries).  Runs without abusive clients trivially satisfy this with
    0 ≥ 0.
    """
    forged = sum(
        client.forged_sent
        for client in result.clients
        if isinstance(client, AbusiveClient)
    )
    if forged == 0:
        return []
    rejected = sum(node.invalid_signatures_rejected() for node in result.nodes)
    if rejected < forged:
        return [
            f"abusive clients sent {forged} forged signatures but the "
            f"cluster only rejected {rejected}"
        ]
    return []


def reporting_tracker(nodes):
    """The tracker a membership run's final view is read from: the
    lowest-numbered live replica's, else a crashed one's."""
    live = [node for node in nodes if not node.crashed]
    return (live or list(nodes))[0].membership


def check_membership_views(result) -> List[str]:
    """Dynamic-membership safety: every replica derives the same view
    sequence from the committed log.

    For each epoch two replicas have both sealed, their activated views
    must hold the identical replica set — views are a deterministic
    function of the ordered ConfigTxs, so divergence here means the
    reconfiguration machinery forked the configuration.  The final view
    of the :func:`reporting_tracker` must match what the freshest replica
    computed, and quorum arithmetic must agree node-for-node (same view ⇒
    same n, f, strong and weak quorums — the "keyset consistency" the
    checkpoint and SB layers rely on).  In a static run every view is the
    genesis one.
    """
    violations = []
    sealed = [
        (node, node.membership)
        for node in result.nodes
        if node.membership.sealed_through >= 0
    ]
    if not sealed:
        return []
    ref_node, ref = max(sealed, key=lambda pair: pair[1].sealed_through)
    for node, tracker in sealed:
        if tracker is ref:
            continue
        limit = min(tracker.sealed_through, ref.sealed_through) + 1
        for epoch in range(limit + 1):
            mine = tracker.view_for(epoch)
            theirs = ref.view_for(epoch)
            if mine.nodes != theirs.nodes:
                violations.append(
                    f"node {node.node_id}: view for epoch {epoch} is "
                    f"{list(mine.nodes)} but node {ref_node.node_id} "
                    f"activated {list(theirs.nodes)}"
                )
                break
            if (mine.strong_quorum, mine.weak_quorum, mine.max_faulty) != (
                theirs.strong_quorum, theirs.weak_quorum, theirs.max_faulty
            ):
                violations.append(
                    f"node {node.node_id}: quorum arithmetic for epoch "
                    f"{epoch} disagrees with node {ref_node.node_id}"
                )
                break
    final_view = list(reporting_tracker(result.nodes).current_view().nodes)
    if final_view != list(ref.current_view().nodes):
        violations.append(
            f"reported final view {final_view} but node "
            f"{ref_node.node_id} computed {list(ref.current_view().nodes)}"
        )
    return violations


def check_removed_nodes_quiesced(result) -> List[str]:
    """A replica removed from membership stops delivering at the boundary.

    Each activation the replicas' trackers recorded names the epoch its
    view takes effect; a removed replica seals the preceding epoch,
    retires, and must never deliver a position of the new epoch — a
    delivery past the boundary would be a node acting under a
    configuration it is no longer part of.  Replicas that were later
    re-added (rolling upgrade) are represented by their new incarnation
    and are exempt; so are replicas that were simply crashed (not retired)
    when the removal activated.
    """
    removals = {}
    for node in result.nodes:
        for epoch, _added, removed in node.membership.activations:
            removals.setdefault(epoch, removed)
    violations = []
    epoch_length = result.nodes[0].config.epoch_length
    for epoch, removed in sorted(removals.items()):
        boundary = epoch * epoch_length
        for node_id in removed:
            if node_id >= len(result.nodes):
                continue
            node = result.nodes[node_id]
            if not getattr(node, "retired", False):
                continue
            if node.log.first_undelivered > boundary:
                violations.append(
                    f"node {node_id}: removed effective epoch "
                    f"{epoch} but delivered through position "
                    f"{node.log.first_undelivered} (> boundary {boundary})"
                )
    return violations


def check_retired_prefix_identity(result) -> List[str]:
    """Retired replicas' delivered prefixes stay on the agreed order.

    :func:`check_prefix_identity` skips crashed nodes, and retirement
    tears a replica down through the crash path — but unlike a crash, a
    clean removal guarantees the full delivered prefix is valid.  So the
    membership runs additionally pin every retired replica's trace to be
    a prefix of the freshest live replica's.
    """
    live = [node for node in result.nodes if not node.crashed]
    retired = [node for node in result.nodes if getattr(node, "retired", False)]
    if not live or not retired:
        return []
    reference = max(live, key=lambda node: node.log.first_undelivered)
    ref_trace = delivered_trace(reference)
    return [
        f"node {node.node_id}: retired with a delivered prefix that "
        f"diverges from live node {reference.node_id}"
        for node in retired
        if not traces_agree([delivered_trace(node), ref_trace])
    ]


def check_membership(result) -> List[str]:
    """All dynamic-membership invariants (trivially clean on static runs)."""
    return (
        check_membership_views(result)
        + check_removed_nodes_quiesced(result)
        + check_retired_prefix_identity(result)
    )


def check_invariants(result) -> List[str]:
    """All per-run safety checks over one DeploymentResult (empty = clean)."""
    return (
        check_prefix_identity(result.nodes)
        + check_no_double_delivery(result.nodes)
        + check_completed_within_submitted(result.report)
        + check_rejections_cover_forgeries(result)
        + check_membership(result)
    )


def check_runs_equivalent(a, b) -> List[str]:
    """Bit-identity contract between two runs of the same scenario.

    ``a`` and ``b`` are DeploymentResults of the same seeded scenario run
    twice.  Equivalence means: the same per-node delivered trace — sequence
    numbers and entry digests — plus identical submitted/completed counts
    and identical simulator and network totals (``events_executed``,
    ``messages_sent``, payload counters).  The counters are included
    deliberately: determinism means the *same schedule*, not just the same
    outcome.
    """
    violations = []
    if len(a.nodes) != len(b.nodes):
        return [f"node counts differ: {len(a.nodes)} vs {len(b.nodes)}"]
    for node_a, node_b in zip(a.nodes, b.nodes):
        if delivered_trace(node_a) != delivered_trace(node_b):
            violations.append(
                f"node {node_a.node_id}: delivered traces differ between runs"
            )
    for key in ("submitted", "completed"):
        va, vb = getattr(a.report, key), getattr(b.report, key)
        if va != vb:
            violations.append(f"{key} differs: {va} vs {vb}")
    for key in ("sim_events", "messages_sent", "bytes_sent", "messages_dropped"):
        va, vb = a.report.extra.get(key), b.report.extra.get(key)
        if va != vb:
            violations.append(f"extra[{key!r}] differs: {va} vs {vb}")
    stats_a, stats_b = a.network.stats, b.network.stats
    for key in ("messages_delivered", "batches_sent", "payloads_batched"):
        va, vb = getattr(stats_a, key), getattr(stats_b, key)
        if va != vb:
            violations.append(f"network stats {key} differs: {va} vs {vb}")
    return violations
