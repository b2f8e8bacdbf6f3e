# Convenience targets for the ISS reproduction.  Everything assumes the
# in-repo layout (sources under src/, no install needed).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test docs-check perf-smoke recovery-smoke byzantine-smoke client-abuse-smoke partition-smoke membership-smoke fuzz-smoke live-smoke obs-smoke bench

# Tier-1 test suite (the CI gate; see ROADMAP.md).
test:
	$(PYTHON) -m pytest -x -q

# Docstring audit + README code-block execution (see repro.doccheck).
docs-check:
	$(PYTHON) -m repro.doccheck

# Profiling-scenario smoke run incl. the batched-vote scenario and the
# docs check; writes BENCH_hotpath.json (see PERF.md).
perf-smoke:
	$(PYTHON) benchmarks/run_perf_smoke.py

# Seeded crash→restart scenario: WAL replay + state transfer must catch the
# node up, keep its log identical to the peers', and replay deterministically
# against tests/data/golden_trace_recovery.json (see repro.recovery_smoke).
recovery-smoke:
	$(PYTHON) -m repro.recovery_smoke

# Seeded equivocation scenario: correct nodes must stay prefix-identical,
# detect the attack, evict the adversary, and replay deterministically
# against tests/data/golden_trace_byzantine.json (see repro.byzantine_smoke).
byzantine-smoke:
	$(PYTHON) -m repro.byzantine_smoke

# Seeded malicious-client scenario: correct clients must complete, abusive
# submissions must be rejected+counted, nodes must stay prefix-identical,
# and the run must replay deterministically against
# tests/data/golden_trace_client_abuse.json (see repro.client_abuse_smoke).
# Writes BENCH_client_abuse.json.
client-abuse-smoke:
	$(PYTHON) -m repro.client_abuse_smoke

# Seeded partition scenario: minority node cut off behind a lossy link;
# clients must complete through retry/backoff, nodes must stay
# prefix-identical, the laggard must reconverge via state transfer at heal,
# and the run must replay deterministically against
# tests/data/golden_trace_partition.json (see repro.partition_smoke).
# Writes BENCH_partition_heal.json.
partition-smoke:
	$(PYTHON) -m repro.partition_smoke

# Seeded reconfiguration scenario: a replica added and another removed via
# ConfigTxs ordered in the log; both changes must activate at epoch
# boundaries, the joiner must catch up via state transfer, every client must
# complete, and the run must replay deterministically against
# tests/data/golden_trace_membership.json (see repro.membership_smoke).
membership-smoke:
	$(PYTHON) -m repro.membership_smoke

# Seeded random scenarios: the standing safety invariants must hold on
# every one (see repro.fuzz_smoke).
fuzz-smoke:
	$(PYTHON) -m repro.fuzz_smoke

# Real 4-node localhost cluster (one OS process per replica, TCP, fsync'd
# storage) driven with KV traffic through one kill -9 + restart; every op
# must complete, the durable logs must agree, the victim must catch up, and
# the run's deterministic shape must match
# tests/data/golden_trace_live.json (see repro.live_smoke).
live-smoke:
	$(PYTHON) -m repro.live_smoke

# Profiling scenario untraced vs fully traced: tracing must not perturb the
# schedule, every completed request must close a valid span chain, the
# exporters must round-trip, and enabled-mode overhead must stay under 10%
# (see repro.obs_smoke).  Writes BENCH_obs_overhead.json.
obs-smoke:
	$(PYTHON) -m repro.obs_smoke

# Hot-path microbenchmarks (diagnose what perf-smoke flags).
bench:
	$(PYTHON) benchmarks/bench_hotpath.py
