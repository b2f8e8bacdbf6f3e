"""Seeded scenario fuzz: random small scenarios, invariants only.

Runs the fixed fuzz population (see :mod:`repro.gate.fuzz`) through
pytest, one scenario per test case: every scenario must satisfy the
standing safety invariants.  The population derives from one master
seed, so a failure here replays exactly with::

    python -m repro.gate.fuzz --seed 0x<master_seed> --count <n>

The CLI sweep and this file share generation and checking code — a
violation found by either is reproducible in the other.
"""

from __future__ import annotations

import pytest

from repro.gate.fuzz import (
    DEFAULT_MASTER_SEED,
    DEFAULT_SCENARIOS,
    check_scenario,
    generate_scenarios,
    random_scenario,
)

POPULATION = generate_scenarios(DEFAULT_SCENARIOS, DEFAULT_MASTER_SEED)


def _scenario_id(spec):
    faults = "+".join(spec["faults"]) or "fault-free"
    return f"{spec['index']:02d}-{spec['protocol']}-n{spec['num_nodes']}-{faults}"


@pytest.mark.parametrize("spec", POPULATION, ids=_scenario_id)
def test_fuzzed_scenario_holds_invariants(spec):
    """One fuzzed scenario: the standing invariants hold."""
    violations = check_scenario(spec)
    assert not violations, "\n".join(violations)


def test_population_is_deterministic():
    """Same master seed → byte-for-byte identical scenario population."""
    again = generate_scenarios(DEFAULT_SCENARIOS, DEFAULT_MASTER_SEED)
    assert again == POPULATION
    # Scenarios are drawn sequentially from one Random, so growing the
    # population only appends: scenario k never changes with the count.
    assert generate_scenarios(20) == generate_scenarios(40)[:20]


def test_population_covers_protocols_and_faults():
    """The default population is diverse enough to mean something."""
    protocols = {spec["protocol"] for spec in POPULATION}
    fault_kinds = {fault for spec in POPULATION for fault in spec["faults"]}
    assert protocols == {"pbft", "hotstuff", "raft"}
    assert {"crash", "straggler", "link-loss"} <= fault_kinds
    assert "member-add" in fault_kinds or "member-remove" in fault_kinds
    assert any(not spec["faults"] for spec in POPULATION)
    assert any(spec["wan_regions"] for spec in POPULATION)


def test_membership_scenarios_shorten_epochs():
    """Reconfiguring scenarios pin the short epoch so activations land."""
    for spec in POPULATION:
        reconfiguring = "member-add" in spec["faults"] or "member-remove" in spec["faults"]
        assert bool(spec["epoch_length"]) == reconfiguring


def test_random_scenario_draws_are_replayable():
    """random_scenario is a pure function of (rng state, index)."""
    import random

    a = random_scenario(random.Random(123), 0)
    b = random_scenario(random.Random(123), 0)
    assert a == b
