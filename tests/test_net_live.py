"""Unit tests for the live backend: wall clock, TCP transport, KV service.

Everything here runs inside one process (loopback sockets, single asyncio
loop); the full multi-process deployment is exercised by
``python -m repro.gate live``.
"""

import asyncio

import pytest

from repro.app.kv import (
    OP_CAS,
    OP_GET,
    OP_PUT,
    KVStateMachine,
    decode_op,
    encode_cas,
    encode_get,
    encode_put,
)
from repro.core.membership import ConfigTx, encode_config_tx
from repro.net.clock import WallClock
from repro.net.transport import TcpTransport, encode_frame
from repro.runtime.api import Scheduler, Transport


def run(coro):
    return asyncio.run(coro)


# -------------------------------------------------------------- wall clock
def test_wallclock_satisfies_scheduler_protocol():
    async def check():
        clock = WallClock(seed=3)
        assert isinstance(clock, Scheduler)
        assert clock.rng.random() == WallClock(seed=3).rng.random()

    run(check())


def test_wallclock_timers_fire_in_order():
    async def check():
        clock = WallClock(seed=0)
        fired = []
        clock.schedule(0.02, lambda: fired.append("late"))
        clock.schedule(0.005, lambda: fired.append("early"))
        clock.schedule_callback(0.01, lambda: fired.append("mid"))
        await asyncio.sleep(0.08)
        assert fired == ["early", "mid", "late"]
        assert clock.events_executed == 3
        assert clock.now >= 0.02

    run(check())


def test_wallclock_timer_cancel_and_reset():
    async def check():
        clock = WallClock(seed=0)
        fired = []
        cancelled = clock.schedule(0.01, lambda: fired.append("cancelled"))
        cancelled.cancel()
        assert not cancelled.active
        reset = clock.schedule(0.5, lambda: fired.append("reset"))
        reset.reset(0.01)  # re-arm much sooner
        await asyncio.sleep(0.1)
        assert fired == ["reset"]
        assert not reset.active

    run(check())


def test_wallclock_schedule_at_past_fires_asap():
    async def check():
        clock = WallClock(seed=0)
        fired = []
        clock.schedule_at(clock.now - 5.0, lambda: fired.append(1))
        await asyncio.sleep(0.05)
        assert fired == [1]

    run(check())


# --------------------------------------------------------------- transport
def test_tcp_transport_satisfies_transport_protocol():
    async def check():
        clock = WallClock(seed=0)
        transport = TcpTransport(clock, peers={})
        assert isinstance(transport, Transport)
        await transport.close()

    run(check())


def test_tcp_transport_loopback_between_two_transports():
    async def check():
        clock = WallClock(seed=0)
        addr_a = ("127.0.0.1", 7940)
        addr_b = ("127.0.0.1", 7941)
        a = TcpTransport(clock, peers={1: addr_b}, listen=addr_a)
        b = TcpTransport(clock, peers={0: addr_a}, listen=addr_b)
        got_a, got_b = [], []
        a.register(0, lambda src, msg: got_a.append((src, msg)))
        b.register(1, lambda src, msg: got_b.append((src, msg)))
        await a.start()
        await b.start()
        try:
            a.send(0, 1, "ping")
            b.send(1, 0, "pong")
            deadline = clock.now + 5.0
            while (not got_a or not got_b) and clock.now < deadline:
                await asyncio.sleep(0.01)
            assert got_b == [(0, "ping")]
            assert got_a == [(1, "pong")]
            assert a.stats.messages_sent == 1
            assert b.stats.frames_received == 1
        finally:
            await a.close()
            await b.close()

    run(check())


def test_tcp_transport_local_shortcircuit_and_unknown_drop():
    async def check():
        clock = WallClock(seed=0)
        transport = TcpTransport(clock, peers={})
        got = []
        transport.register(5, lambda src, msg: got.append((src, msg)))
        transport.send(9, 5, "local")  # registered endpoint: no socket
        transport.send(9, 77, "nowhere")  # no route at all: dropped
        await asyncio.sleep(0.01)
        assert got == [(9, "local")]
        assert transport.stats.messages_dropped == 1
        await transport.close()

    run(check())


@pytest.mark.parametrize("flush_interval", [0.0, 0.02], ids=["unbatched", "batched"])
def test_tcp_transport_multicast_is_per_destination_send(flush_interval):
    """A peer, another endpoint registered here and the batcher see a
    multicast exactly as they see one ``send`` each; the sender's own copy
    takes the local short-circuit and never waits for a flush tick."""
    from repro.pbft.messages import Prepare

    vote = Prepare(view=0, sn=1, digest=b"d" * 32)  # batchable

    async def drive(ports, fan_out):
        clock = WallClock(seed=0)
        addr_a, addr_b = ("127.0.0.1", ports[0]), ("127.0.0.1", ports[1])
        a = TcpTransport(
            clock, peers={1: addr_b}, listen=addr_a, batch_flush_interval=flush_interval
        )
        b = TcpTransport(clock, peers={0: addr_a}, listen=addr_b)
        got = []
        a.register(0, lambda src, msg: got.append((0, src, msg)))
        a.register(5, lambda src, msg: got.append((5, src, msg)))
        b.register(1, lambda src, msg: got.append((1, src, msg)))
        await a.start()
        await b.start()
        try:
            fan_out(a, [1, 5], vote)
            fan_out(a, [5, 1], "proposal")  # not batchable
            enqueued = a.batcher.stats.payloads_enqueued if a.batcher else 0
            deadline = clock.now + 5.0
            while len(got) < 4 and clock.now < deadline:
                await asyncio.sleep(0.01)
            return sorted(got, key=repr), a.stats.as_dict(), enqueued
        finally:
            await a.close()
            await b.close()

    def by_multicast(transport, dsts, message):
        transport.multicast(0, dsts, message)

    def by_send_loop(transport, dsts, message):
        for dst in dsts:
            transport.send(0, dst, message)

    got, stats, enqueued = run(drive((7942, 7943), by_multicast))
    assert (got, stats, enqueued) == run(drive((7944, 7945), by_send_loop))
    assert len(got) == 4
    assert enqueued == (2 if flush_interval else 0)

    async def own_copy():
        clock = WallClock(seed=0)
        transport = TcpTransport(clock, peers={}, batch_flush_interval=flush_interval)
        got = []
        transport.register(0, lambda src, msg: got.append((src, msg)))
        transport.multicast(0, [0], vote)
        assert got == []  # asynchronous, like every delivery
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert got == [(0, vote)]  # ... but not held for the flush tick
        if transport.batcher is not None:
            assert transport.batcher.stats.payloads_enqueued == 0
        await transport.close()

    run(own_copy())


def test_frame_encoding_round_trips():
    import pickle
    import struct

    frame = encode_frame(3, 9, ("hello", 42))
    (length,) = struct.Struct(">I").unpack(frame[:4])
    assert length == len(frame) - 4
    assert pickle.loads(frame[4:]) == (3, 9, ("hello", 42))


# ---------------------------------------------------------------- KV codec
def test_kv_codec_round_trips():
    assert decode_op(encode_put("k", "v")) == (OP_PUT, ("k", "v"))
    assert decode_op(encode_get("k")) == (OP_GET, ("k",))
    assert decode_op(encode_cas("k", "a", "b")) == (OP_CAS, ("k", "a", "b"))
    assert decode_op(encode_put("κλειδί", "τιμή")) == (OP_PUT, ("κλειδί", "τιμή"))


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"\x00",
        b"Z" + b"\x00\x00\x00\x01x",  # unknown op
        b"P",  # missing fields
        b"P\x00\x00\x00\x05ab",  # length past the end
        b"P\x00\x00\x00\x01a\x00\x00\x00\x01b\xff",  # trailing garbage
        b"P\x00\x00\x00\x02\xff\xfe\x00\x00\x00\x01b",  # invalid UTF-8
        encode_config_tx(ConfigTx("add", 9)),  # a real non-KV payload from the log
        b"\x00" * 64,  # benchmark padding
    ],
)
def test_kv_decode_rejects_non_kv_payloads(payload):
    assert decode_op(payload) is None


def test_kv_state_machine_semantics():
    machine = KVStateMachine()
    put = machine.apply(encode_put("k", "v1"))
    assert put.ok and put.value == "v1"
    missing = machine.apply(encode_get("absent"))
    assert not missing.ok and missing.value is None
    hit = machine.apply(encode_get("k"))
    assert hit.ok and hit.value == "v1"
    swapped = machine.apply(encode_cas("k", "v1", "v2"))
    assert swapped.ok and swapped.value == "v2"
    refused = machine.apply(encode_cas("k", "v1", "v3"))
    assert not refused.ok and refused.value == "v2"
    assert machine.store == {"k": "v2"}
    assert machine.applied == 5 and machine.skipped == 0


def test_kv_state_machine_skips_foreign_payloads():
    machine = KVStateMachine()
    assert machine.apply(encode_config_tx(ConfigTx("remove", 2))) is None
    assert machine.apply(b"\x00" * 16) is None
    machine.apply(encode_put("k", "v"))
    assert machine.applied == 1 and machine.skipped == 2


def test_kv_replicas_converge_from_same_sequence():
    ops = [
        encode_put("a", "1"),
        encode_cas("a", "1", "2"),
        encode_config_tx(ConfigTx("add", 5)),
        encode_put("b", "3"),
        encode_cas("a", "wrong", "9"),
    ]
    machines = [KVStateMachine() for _ in range(3)]
    for machine in machines:
        for op in ops:
            machine.apply(op)
    assert all(m.store == {"a": "2", "b": "3"} for m in machines)
