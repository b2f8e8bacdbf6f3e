"""The gate table and its one runner (``python -m repro.gate``).

Every gate is a :class:`Gate` record in :data:`GATES`; running one means

1. run its pinned scenario (observability pinned off) and print the flat
   figure dict,
2. apply its *claims* in order — they hold in every mode, so a golden
   trace or a bench artefact of a broken run can never be recorded,
3. for gates with a golden trace: compare the ``scenario`` block and the
   pinned keys against ``tests/data/<golden>`` bit for bit (same seed ⇒
   same schedule), or re-record it with ``--update-golden``,
4. on success refresh the gate's ``BENCH_*.json`` artefact in the repo
   root, so the tracked trajectory never holds figures CI rejected.

Usage::

    PYTHONPATH=src python -m repro.gate recovery partition   # named gates
    PYTHONPATH=src python -m repro.gate --all                # the CI chain

Exit code 1 when any requested gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..obs.config import ObsConfig
from . import fuzz, live, obs, simulated
from .simulated import REPLAY_KEYS, Claim, Figures

#: The repository root (parent of ``src/``): goldens and artefacts live here.
REPO_ROOT = Path(__file__).resolve().parents[3]


@dataclass(frozen=True)
class Gate:
    """One end-to-end check: a pinned scenario, its claims, its pins."""

    name: str
    #: Runs the scenario under the given (pinned) ObsConfig; its docstring
    #: describes the scenario.
    run: Callable[[ObsConfig], Figures]
    #: Ordered ``(predicate, message)`` pairs; the first false one fails.
    claims: Sequence[Claim]
    #: Golden trace under ``tests/data/`` and the figure keys that must
    #: match it exactly (``scenario`` always must).
    golden: Optional[str] = None
    pinned: Sequence[str] = ()
    #: ``BENCH_*.json`` artefact (repo root) refreshed by passing runs.
    bench: Optional[str] = None

    @property
    def golden_path(self) -> Optional[Path]:
        """Where the gate's golden trace lives (None for unpinned gates)."""
        return REPO_ROOT / "tests" / "data" / self.golden if self.golden else None


#: Every gate, in the order ``--all`` runs them.
GATES: Dict[str, Gate] = {
    gate.name: gate
    for gate in (
        Gate(
            "perf",
            simulated.perf_figures,
            simulated.PERF_CLAIMS,
            bench="BENCH_hotpath.json",
        ),
        Gate(
            "recovery",
            simulated.recovery_figures,
            simulated.RECOVERY_CLAIMS,
            golden="golden_trace_recovery.json",
            pinned=("recovery", *REPLAY_KEYS),
        ),
        Gate(
            "byzantine",
            simulated.byzantine_figures,
            simulated.BYZANTINE_CLAIMS,
            golden="golden_trace_byzantine.json",
            pinned=(
                "completed",
                "equivocations_sent",
                "equivocations_detected_total",
                "nil_committed",
                *REPLAY_KEYS,
            ),
        ),
        Gate(
            "client-abuse",
            simulated.client_abuse_figures,
            simulated.CLIENT_ABUSE_CLAIMS,
            golden="golden_trace_client_abuse.json",
            pinned=(
                "completed",
                "out_of_window_sent",
                "watermark_rejections",
                "duplicates_sent",
                "duplicates_absorbed",
                "forged_sent",
                "forgeries_rejected",
                *REPLAY_KEYS,
            ),
            bench="BENCH_client_abuse.json",
        ),
        Gate(
            "partition",
            simulated.partition_figures,
            simulated.PARTITION_CLAIMS,
            golden="golden_trace_partition.json",
            pinned=(
                "completed",
                "laggards",
                "time_to_reconverge",
                "view_changes_during",
                "partition_drops",
                "link_fault_drops",
                "link_retransmissions",
                "client_retries",
                *REPLAY_KEYS,
            ),
        ),
        Gate(
            "membership",
            simulated.membership_figures,
            simulated.MEMBERSHIP_CLAIMS,
            golden="golden_trace_membership.json",
            pinned=(
                "activations",
                "final_view",
                "config_txs_committed",
                "time_to_join",
                *REPLAY_KEYS,
            ),
        ),
        # The fuzzer pins its own ObsConfig (see fuzz.build_deployment).
        Gate("fuzz", lambda _obs: fuzz.run_fuzz(), fuzz.CLAIMS),
        # Real processes have no ObsConfig.  Only the run's deterministic
        # shape is pinned: wall-clock figures (``wall_seconds``, latencies,
        # ``min_prefix_requests``, which grows with retransmission timing)
        # are scheduled by the OS, not the simulator.
        Gate(
            "live",
            lambda _obs: live.run_live(),
            live.CLAIMS,
            golden="golden_trace_live.json",
            pinned=(
                "submitted",
                "completed",
                "completed_fraction",
                "all_completed",
                "read_ok",
                "prefix_identical",
                "victim_caught_up",
                "restarts_performed",
            ),
        ),
        Gate("obs", obs.overhead_figures, obs.CLAIMS, bench="BENCH_obs_overhead.json"),
    )
}


def evaluate(gate: Gate) -> Tuple[Figures, Optional[str]]:
    """Run ``gate``'s scenario; return its figures and the first violated
    claim's message (None when every claim holds)."""
    figures = gate.run(ObsConfig.disabled())
    for holds, message in gate.claims:
        if not holds(figures):
            return figures, message.format_map(figures)
    return figures, None


def golden_mismatch(gate: Gate, figures: Figures) -> Optional[str]:
    """Compare ``figures`` against ``gate``'s golden trace.

    Returns None when the scenario block and every pinned key match, else
    a human-readable error.  Divergence of a same-seed run always means
    the schedule changed; the message tells the operator to re-record only
    for an *intentional* change.
    """
    path = gate.golden_path
    if not path.exists():
        return f"golden trace {path} does not exist — record it with --update-golden"
    golden = json.loads(path.read_text())
    if golden.get("scenario") != figures["scenario"]:
        return (
            f"golden trace {path} was recorded for a different scenario — "
            f"re-record it with --update-golden"
        )
    for key in gate.pinned:
        if golden.get(key) != figures[key]:
            return (
                f"{gate.name.upper()} DETERMINISM REGRESSION: {key} diverged "
                f"from the golden trace (golden {golden.get(key)!r}, measured "
                f"{figures[key]!r}).  Same-seed runs must replay identically; "
                f"re-record with --update-golden only for an intentional "
                f"schedule change."
            )
    return None


def _print_figures(figures: Figures) -> None:
    for key, value in figures.items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for sub_key, sub_value in value.items():
                print(f"    {sub_key}: {sub_value}")
        else:
            print(f"  {key}: {value}")


def run_gate(gate: Gate, update_golden: bool = False) -> bool:
    """Run one gate end to end (print, check, record); True when it passed."""
    print(f"== gate {gate.name}")
    figures, error = evaluate(gate)
    _print_figures(figures)
    if error is None and gate.golden is not None:
        if update_golden:
            gate.golden_path.write_text(json.dumps(figures, indent=2) + "\n")
            print(f"updated golden trace {gate.golden_path}")
        else:
            error = golden_mismatch(gate, figures)
    if error is not None:
        print(error, file=sys.stderr)
        return False
    if gate.bench is not None:
        artefact = {"source": f"repro.gate {gate.name}", **figures}
        (REPO_ROOT / gate.bench).write_text(json.dumps(artefact, indent=2) + "\n")
        print(f"wrote {gate.bench}")
    print(f"gate {gate.name} ok")
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run the named gates (or ``--all``); 1 if any failed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.gate", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "names", nargs="*", metavar="name", help=f"gates to run: {', '.join(GATES)}"
    )
    parser.add_argument("--all", action="store_true", help="run every gate, in order")
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="record passing runs as the new golden traces instead of checking",
    )
    args = parser.parse_args(argv)
    if bool(args.names) == args.all:
        parser.error("name at least one gate, or pass --all (not both)")
    unknown = [name for name in args.names if name not in GATES]
    if unknown:
        parser.error(f"unknown gate(s) {unknown}; choose from {', '.join(GATES)}")
    names = list(GATES) if args.all else args.names
    # Every gate runs even after a failure: one CI step reports them all.
    failed = [
        name for name in names if not run_gate(GATES[name], args.update_golden)
    ]
    if failed:
        print(f"FAILED gates: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0
