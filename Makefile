# Convenience targets for the ISS reproduction.  Everything assumes the
# in-repo layout (sources under src/, no install needed).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test docs-check gates bench

# Tier-1 test suite (the CI gate; see ROADMAP.md).
test:
	$(PYTHON) -m pytest -x -q

# Docstring audit + README code-block execution (see repro.doccheck).
docs-check:
	$(PYTHON) -m repro.doccheck

# One end-to-end gate by name: make gate-perf, gate-recovery, gate-byzantine,
# gate-client-abuse, gate-partition, gate-membership, gate-fuzz, gate-live,
# gate-obs.  What each one pins and claims: docs/SCENARIOS.md, "Gates".
gate-%:
	$(PYTHON) -m repro.gate $*

# Every gate in order; refreshes the BENCH_*.json artefacts of passing gates.
# (CI runs benchmarks/run_perf_smoke.py: this, then docs-check.)
gates:
	$(PYTHON) -m repro.gate --all

# Hot-path microbenchmarks (diagnose what the benchmark's sim_n8 flags).
bench:
	$(PYTHON) benchmarks/bench_hotpath.py
