"""Shared golden-trace plumbing for the seeded smoke gates.

``repro.recovery_smoke`` and ``repro.byzantine_smoke`` both pin a seeded
scenario to a JSON golden trace: a scenario block that must match exactly
(else the trace belongs to a different experiment) plus a set of pinned
figure keys that must replay bit-identically.  This module owns the
compare/record logic once so the gates cannot drift apart in semantics or
wording; each gate keeps only its scenario, its figures, and its semantic
(non-determinism) checks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def check_against_golden(
    figures: Dict[str, object],
    path: Path,
    pinned_keys: Sequence[str],
    regression_label: str,
) -> Optional[str]:
    """Compare a smoke run against its golden trace.

    Returns None when every pinned key matches, else a human-readable
    error: missing trace, scenario mismatch, or — prefixed with
    ``regression_label`` — the first diverging pinned key.  Divergence of
    a same-seed run always means the schedule changed; the message tells
    the operator to re-record only for an *intentional* change.
    """
    if not path.exists():
        return (
            f"golden trace {path} does not exist — run with --update-golden "
            f"to record one"
        )
    golden = json.loads(path.read_text())
    if golden.get("scenario") != figures["scenario"]:
        return (
            f"golden trace {path} was recorded for a different scenario — "
            f"re-record it with --update-golden"
        )
    for key in pinned_keys:
        if golden.get(key) != figures[key]:
            return (
                f"{regression_label}: {key} diverged from the golden trace "
                f"(golden {golden.get(key)!r}, measured {figures[key]!r}).  "
                f"Same-seed runs must replay identically; re-record with "
                f"--update-golden only for an intentional schedule change."
            )
    return None


def write_golden(figures: Dict[str, object], path: Path) -> None:
    """Record ``figures`` as the new golden trace at ``path``."""
    path.write_text(json.dumps(figures, indent=2) + "\n")


def delivered_trace(node) -> List[Tuple[int, str]]:
    """A node's delivered sequence as ``(sn, entry-digest-hex | "nil")``.

    The canonical shape every smoke gate digests into its ``trace_sha256``
    pin (``sha256(repr(trace))``) — owned here so the gates cannot drift
    into measuring different things.
    """
    from .core.types import is_nil  # deferred: keep this module dependency-light

    trace: List[Tuple[int, str]] = []
    for sn in range(node.log.first_undelivered):
        entry = node.log.entry(sn)
        trace.append((sn, "nil" if is_nil(entry) else entry.digest().hex()))
    return trace


def trace_sha256(node) -> str:
    """The ``sha256(repr(delivered_trace(node)))`` digest the gates pin."""
    return hashlib.sha256(repr(delivered_trace(node)).encode()).hexdigest()
