#!/usr/bin/env python
"""CI entry point: perf smoke + crash-recovery smoke + docs check.

Runs, in order:

* ``python -m repro.perf_smoke`` — profiling scenario, unbatched and
  batched; batching must keep cutting wire messages by at least 30 %
  (see that module and PERF.md for the output format),
* ``python -m repro.recovery_smoke`` — seeded crash→restart scenario;
  the restarted node must catch up, stay log-identical to its peers, and
  replay deterministically against the recovery golden trace,
* ``python -m repro.byzantine_smoke`` — seeded equivocation scenario;
  correct nodes must stay prefix-identical, detect the attack, evict the
  adversary, and replay deterministically against the Byzantine golden
  trace,
* ``python -m repro.client_abuse_smoke`` — seeded malicious-client
  scenario; correct clients must complete, every abusive submission must
  be rejected and counted, and the run must replay deterministically
  against the client-abuse golden trace (writes
  ``BENCH_client_abuse.json``),
* ``python -m repro.partition_smoke`` — seeded partition scenario
  (minority node cut off behind a lossy link); correct clients must
  complete through retry/backoff, nodes must stay prefix-identical, the
  laggard must reconverge via state transfer at heal, and the run must
  replay deterministically against the partition golden trace (writes
  ``BENCH_partition_heal.json``),
* ``python -m repro.membership_smoke`` — seeded reconfiguration
  scenario (a replica added and another removed via ConfigTxs ordered in
  the log); both changes must activate at epoch boundaries, the joiner
  must catch up via state transfer, every client must complete, and the
  run must replay deterministically against the membership golden trace,
* ``python -m repro.fuzz_smoke`` (reduced count) — seeded random
  scenarios; the standing safety invariants must hold on every one,
* ``python -m repro.live_smoke`` — a **real** 4-node localhost cluster
  (one OS process per replica, TCP, fsync'd storage) driven with KV
  traffic through one ``kill -9`` + restart; every operation must
  complete, the durable logs must agree, the victim must catch up, and
  the run's deterministic shape must match the live golden trace,
* ``python -m repro.obs_smoke`` — the profiling scenario untraced vs
  fully traced; tracing must not perturb the schedule, every completed
  request must close a valid span chain, the artifacts must round-trip
  through the exporters, and enabled-mode overhead must stay under 10%
  (writes ``BENCH_obs_overhead.json``),
* ``python -m repro.doccheck`` — docstring audit + README and
  docs/SCENARIOS.md code-block execution.

The exit status is non-zero when *any* gate fails, so CI catches perf,
recovery, adversary-robustness, partition-tolerance and documentation
regressions in one step.

Usage::

    PYTHONPATH=src python benchmarks/run_perf_smoke.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.byzantine_smoke import main as byzantine_main  # noqa: E402
from repro.client_abuse_smoke import main as client_abuse_main  # noqa: E402
from repro.doccheck import main as doccheck_main  # noqa: E402
from repro.fuzz_smoke import main as fuzz_main  # noqa: E402
from repro.live_smoke import main as live_main  # noqa: E402
from repro.obs_smoke import main as obs_main  # noqa: E402
from repro.membership_smoke import main as membership_main  # noqa: E402
from repro.partition_smoke import main as partition_main  # noqa: E402
from repro.perf_smoke import main as perf_main  # noqa: E402
from repro.recovery_smoke import main as recovery_main  # noqa: E402

if __name__ == "__main__":
    perf_status = perf_main()
    recovery_status = recovery_main([])
    byzantine_status = byzantine_main([])
    client_abuse_status = client_abuse_main([])
    partition_status = partition_main([])
    membership_status = membership_main([])
    fuzz_status = fuzz_main(["--count", "12"])
    live_status = live_main([])
    obs_status = obs_main([])
    doc_status = doccheck_main([])
    sys.exit(
        perf_status
        or recovery_status
        or byzantine_status
        or client_abuse_status
        or partition_status
        or membership_status
        or fuzz_status
        or live_status
        or obs_status
        or doc_status
    )
