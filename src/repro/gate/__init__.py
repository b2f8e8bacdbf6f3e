"""The repo's end-to-end gates (``python -m repro.gate <name>… | --all``).

A gate is one seeded scenario plus the claims it must uphold and — for the
deterministic ones — a golden trace it must replay bit for bit.  All nine
live in one table, :data:`repro.gate.table.GATES`, run by one entry point;
what is unique to each gate is plain functions the table points at:

* :mod:`repro.gate.simulated` — the six pinned simulator scenarios (perf,
  recovery, byzantine, client-abuse, partition, membership), each built by
  the same ``*_deployment`` builder its figure benchmark uses,
* :mod:`repro.gate.fuzz` — the seeded scenario fuzzer (its own
  ``--seed/--count`` CLI replays a reported violation),
* :mod:`repro.gate.live` — a real localhost cluster through a ``kill -9``,
* :mod:`repro.gate.obs` — tracing overhead and span-chain validity.

This ``__init__`` imports nothing so ``python -m repro.gate.fuzz`` runs
without the table (and everything it pulls in) loaded twice.
"""
