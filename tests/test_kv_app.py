"""The replicated KV application (repro.app.kv) in the simulator.

The same :class:`~repro.app.kv.KVApp` a live replica process runs is handed
to a simulated :class:`~repro.harness.runner.Deployment` as ``app=KVApp``.
For each SB protocol, a 4-node run with KV traffic and one replica crashed
and restarted must end with

* the same store digest on every replica, and
* the restarted incarnation holding a fresh application whose store was
  rebuilt by recovery replay before it delivered anything new.

The state machine itself must survive any delivered payload: arbitrary
bytes never raise, and whatever is no KV operation leaves the store alone.
"""

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.kv import KVApp, KVCas, KVGet, KVPut, KVStateMachine, encode_cas, encode_get, encode_put
from repro.core.config import (
    PROTOCOL_HOTSTUFF,
    PROTOCOL_PBFT,
    PROTOCOL_RAFT,
    WorkloadConfig,
)
from repro.harness.runner import Deployment
from repro.harness.scenarios import iss_config
from repro.runtime.codec import CodecError, decode
from repro.runtime.faults import CrashSpec, RestartSpec

VICTIM = 1
CRASH, RESTART, DURATION = 2.0, 5.0, 8.0
#: Gap between two rounds of KV submissions (one operation per client).
INTERVAL = 0.05
KEYS = 16


def kv_operation(n: int) -> bytes:
    key = f"key-{n % KEYS}"
    if n % 7 == 0:
        return encode_get(key)
    if n % 5 == 0:
        return encode_cas(key, f"v{n - KEYS}", f"v{n}")
    return encode_put(key, f"v{n}")


@pytest.fixture(scope="module", params=[PROTOCOL_PBFT, PROTOCOL_HOTSTUFF, PROTOCOL_RAFT])
def kv_run(request):
    """One crash-restart KV run per protocol, shared by the tests below.

    Returns the deployment, its report, the victim's first application and
    the victim's store as recovery left it (``applied``, ``skipped``)."""
    deployment = Deployment(
        iss_config(request.param, 4, random_seed=3, epoch_length=16),
        workload=WorkloadConfig(
            num_clients=4, total_rate=1.0, duration=DURATION, payload_size=0
        ),
        faults=[CrashSpec(node=VICTIM, time=CRASH), RestartSpec(node=VICTIM, time=RESTART)],
        app=KVApp,
    )
    sim = deployment.sim
    operations = count()

    def submit_round() -> None:
        for client in deployment.clients:
            if client.outstanding_within_watermarks():
                client.submit(kv_operation(next(operations)))
        if sim.now + INTERVAL < DURATION:
            sim.schedule_callback(INTERVAL, submit_round)

    sim.schedule_callback(INTERVAL, submit_round)
    # The harness's restart hook returns once the new incarnation is booted:
    # recovery replay is done and nothing new has been delivered yet.
    after_replay = {}
    restart = deployment.injector.on_restart

    def on_restart(node_id: int) -> None:
        restart(node_id)
        machine = deployment.apps[node_id].machine
        after_replay[node_id] = (machine.applied, machine.skipped)

    deployment.injector.on_restart = on_restart
    first_app = deployment.apps[VICTIM]
    result = deployment.run()
    return deployment, result.report, first_app, after_replay[VICTIM]


def test_every_replica_ends_with_the_same_store(kv_run):
    deployment, _report, _first, _replayed = kv_run
    machines = [deployment.apps[node].machine for node in range(4)]
    assert {machine.digest() for machine in machines} == {machines[0].digest()}
    assert machines[0].applied > 100 and machines[0].store
    assert all(machine.applied == machines[0].applied for machine in machines)


def test_the_restarted_replica_rebuilt_its_store_by_replay(kv_run):
    deployment, report, first_app, (applied, skipped) = kv_run
    assert deployment.apps[VICTIM] is not first_app
    (recovery,) = report.recoveries
    assert applied > 0
    assert applied + skipped == recovery["requests_redelivered"]
    assert recovery["time_to_caught_up"] >= 0


#: Valid operation bodies, to mutate into near-valid ones.
_OPERATIONS = st.one_of(
    st.builds(encode_put, st.text(max_size=8), st.text(max_size=8)),
    st.builds(encode_get, st.text(max_size=8)),
    st.builds(encode_cas, st.text(max_size=8), st.text(max_size=8), st.text(max_size=8)),
)


@st.composite
def _payloads(draw):
    """Arbitrary bytes, or an operation cut, extended or with one byte flipped."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    body = bytearray(draw(_OPERATIONS))
    how = draw(st.sampled_from(["cut", "extend", "flip"]))
    if how == "cut":
        return bytes(body[: draw(st.integers(0, len(body)))])
    if how == "extend":
        return bytes(body) + draw(st.binary(min_size=1, max_size=8))
    index = draw(st.integers(0, len(body) - 1))
    body[index] ^= draw(st.integers(1, 255))
    return bytes(body)


def _is_operation(payload: bytes) -> bool:
    try:
        return isinstance(decode(payload), (KVPut, KVGet, KVCas))
    except CodecError:
        return False


@settings(max_examples=300, deadline=None)
@given(_payloads())
def test_applying_any_payload_never_raises_and_a_non_operation_changes_nothing(payload):
    machine = KVStateMachine()
    machine.apply(encode_put("k", "v"))
    before = dict(machine.store)
    result = machine.apply(payload)
    if _is_operation(payload):
        assert result is not None and machine.applied == 2
    else:
        assert result is None
        assert (machine.store, machine.applied, machine.skipped) == (before, 1, 1)
