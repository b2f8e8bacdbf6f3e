"""Replay every simulator golden gate of :data:`repro.gate.table.GATES`.

One parametrized test per gate with a golden trace that runs on the
simulator (the ``live`` gate boots real processes; ``tests/test_net_live.py``
covers that backend): the gate's claims must hold and its pinned keys must
match ``tests/data/<golden>`` bit for bit — exactly what
``python -m repro.gate <name>`` checks, through the same two functions.
"""

import pytest

from repro.gate.table import GATES, evaluate, golden_mismatch

SIMULATOR_GOLDEN_GATES = [
    gate for gate in GATES.values() if gate.golden is not None and gate.name != "live"
]


@pytest.mark.parametrize("gate", SIMULATOR_GOLDEN_GATES, ids=lambda gate: gate.name)
def test_gate_replays_its_golden_trace(gate):
    figures, violated_claim = evaluate(gate)
    assert violated_claim is None, violated_claim
    assert golden_mismatch(gate, figures) is None


def test_table_runs_the_nine_ci_gates_in_order():
    assert list(GATES) == [
        "perf", "recovery", "byzantine", "client-abuse", "partition",
        "membership", "fuzz", "live", "obs",
    ]
    assert [g.name for g in SIMULATOR_GOLDEN_GATES] == [
        "recovery", "byzantine", "client-abuse", "partition", "membership",
    ]
