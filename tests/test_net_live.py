"""Unit tests for the live backend: wall clock, TCP transport, KV service.

Everything here runs inside one process (loopback sockets, single asyncio
loop); the full multi-process deployment is exercised by
``python -m repro.gate live``.
"""

import asyncio

import pytest

from repro.app.kv import (
    KVCas,
    KVGet,
    KVPut,
    KVResultMsg,
    KVStateMachine,
    encode_cas,
    encode_get,
    encode_put,
)
from repro.core.membership import ConfigTx, encode_config_tx
from repro.core.state_transfer import StateRequest
from repro.core.types import RequestId
from repro.net import transport as transport_module
from repro.net.clock import WallClock
from repro.net.transport import TcpTransport, encode_frame
from repro.runtime.api import Scheduler, Transport
from repro.runtime.codec import FRAME_HEADER, decode, encode

#: Registered (hence encodable) messages standing in for arbitrary traffic.
PING = StateRequest(first_epoch=1, last_epoch=2)
PONG = StateRequest(first_epoch=3, last_epoch=4)


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


def test_wallclock_runs_a_due_callback_before_anything_queued_after_it():
    """Zero delay, a past time and ``call_soon`` queue the callback at the
    loop's ready queue, in scheduling order, never inside the scheduling
    call: input read on the next loop turn, queued behind it, cannot delay
    it (on asyncio's timer path it would run after that input)."""

    async def check():
        clock = WallClock(seed=0)
        loop = asyncio.get_running_loop()
        order = []
        reset = clock.schedule(5.0, lambda: order.append("reset"))

        def schedule_all():
            clock.schedule(0.0, lambda: order.append("schedule"))
            clock.schedule_at(clock.now - 1.0, lambda: order.append("schedule_at"))
            clock.call_soon(lambda: order.append("call_soon"))
            clock.schedule_callback(0.0, lambda: order.append("callback"))
            clock.schedule_callback_at(clock.now - 1.0, lambda: order.append("callback_at"))
            reset.reset(0.0)
            loop.call_soon(lambda: order.append("queued after"))
            assert order == []

        loop.call_soon(schedule_all)
        await asyncio.sleep(0.01)
        assert order == [
            "schedule", "schedule_at", "call_soon", "callback", "callback_at", "reset",
            "queued after",
        ]
        assert clock.events_executed == 6

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
            a.send(0, 1, PING)
            b.send(1, 0, PONG)
            deadline = clock.now + 5.0
            while (not got_a or not got_b) and clock.now < deadline:
                await asyncio.sleep(0.01)
            assert got_b == [(0, PING)]
            assert got_a == [(1, PONG)]
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
            fan_out(a, [5, 1], PING)  # not batchable
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


@pytest.mark.parametrize(
    "garbage",
    [
        FRAME_HEADER.pack(5, 1000, 0) + b"\x01\xffxyz",  # unknown type tag
        FRAME_HEADER.pack(len(encode(PING)), 1000, 0) + b"\x80" + encode(PING)[1:],
        FRAME_HEADER.pack(0xFFFFFFFF, 1000, 0),  # oversize length
    ],
    ids=["unknown-tag", "unknown-version", "oversize"],
)
def test_rejected_frames_are_counted_and_close_only_their_connection(garbage):
    """Garbage on one connection is counted in ``frames_rejected`` and ends
    that connection; the transport keeps serving its other peers."""

    async def check():
        clock = WallClock(seed=0)
        addr_a, addr_b = ("127.0.0.1", 7946), ("127.0.0.1", 7947)
        a = TcpTransport(clock, peers={1: addr_b}, listen=addr_a)
        b = TcpTransport(clock, peers={0: addr_a}, listen=addr_b)
        got = []
        a.register(0, lambda src, msg: got.append((src, msg)))
        b.register(1, lambda src, msg: None)
        await a.start()
        await b.start()
        try:
            reader, writer = await asyncio.open_connection(*addr_a)
            writer.write(garbage)
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""  # closed
            writer.close()
            assert a.stats.frames_rejected == 1
            assert a.stats.frames_received == 0 and got == []
            b.send(1, 0, PING)
            deadline = clock.now + 5.0
            while not got and clock.now < deadline:
                await asyncio.sleep(0.01)
            assert got == [(1, PING)]
            assert a.stats.frames_rejected == 1
        finally:
            await a.close()
            await b.close()

    run(check())


async def _wait_for(condition, clock, timeout=5.0):
    deadline = clock.now + timeout
    while not condition():
        assert clock.now < deadline, "timed out"
        await asyncio.sleep(0.01)


def test_frames_sent_to_a_peer_that_is_not_up_arrive_in_order_once_it_starts():
    async def check():
        clock = WallClock(seed=0)
        addr_a, addr_b = ("127.0.0.1", 7948), ("127.0.0.1", 7949)
        a = TcpTransport(clock, peers={1: addr_b}, listen=addr_a, reconnect_delay=0.02)
        b = TcpTransport(clock, peers={0: addr_a}, listen=addr_b)
        got = []
        b.register(1, lambda src, msg: got.append(msg))
        await a.start()
        try:
            sent = [StateRequest(first_epoch=i, last_epoch=i) for i in range(50)]
            for message in sent:
                a.send(0, 1, message)
            await asyncio.sleep(0.1)  # several failed connection attempts
            await b.start()
            await _wait_for(lambda: len(got) == len(sent), clock)
            assert got == sent
            assert a.stats.messages_dropped == 0
        finally:
            await a.close()
            await b.close()

    run(check())


def test_a_full_peer_outbox_drops_the_newest_frame(monkeypatch):
    monkeypatch.setattr(transport_module, "PEER_QUEUE_DEPTH", 8)

    async def check():
        clock = WallClock(seed=0)
        addr_a, addr_b = ("127.0.0.1", 7950), ("127.0.0.1", 7951)
        a = TcpTransport(clock, peers={1: addr_b}, listen=addr_a, reconnect_delay=0.02)
        b = TcpTransport(clock, peers={0: addr_a}, listen=addr_b)
        got = []
        b.register(1, lambda src, msg: got.append(msg.first_epoch))
        await a.start()
        try:
            for i in range(11):
                a.send(0, 1, StateRequest(first_epoch=i, last_epoch=i))
            assert a.stats.messages_dropped == 3
            assert a.stats.messages_sent == 8
            await b.start()
            await _wait_for(lambda: len(got) == 8, clock)
            await asyncio.sleep(0.05)
            assert got == list(range(8))
        finally:
            await a.close()
            await b.close()

    run(check())


def test_a_frame_split_into_single_bytes_and_a_frame_over_256_kib_decode():
    big = KVResultMsg(rid=RequestId(3, 7), node=2, ok=True, value="v" * (300 * 1024))

    async def check():
        clock = WallClock(seed=0)
        addr = ("127.0.0.1", 7952)
        a = TcpTransport(clock, peers={}, listen=addr)
        got = []
        a.register(0, lambda src, msg: got.append((src, msg)))
        await a.start()
        try:
            reader, writer = await asyncio.open_connection(*addr)
            for byte in encode_frame(1000, 0, PING):
                writer.write(bytes([byte]))
                await writer.drain()
                await asyncio.sleep(0.002)
            await _wait_for(lambda: len(got) == 1, clock)
            writer.write(encode_frame(1000, 0, big))
            await writer.drain()
            await _wait_for(lambda: len(got) == 2, clock)
            assert got == [(1000, PING), (1000, big)]
            assert a.stats.frames_received == 2 and a.stats.frames_rejected == 0
            writer.close()
        finally:
            await a.close()

    run(check())


def test_a_send_to_a_client_whose_connection_closed_is_dropped():
    async def check():
        clock = WallClock(seed=0)
        addr = ("127.0.0.1", 7953)
        a = TcpTransport(clock, peers={}, listen=addr)
        a.register(0, lambda src, msg: None)
        await a.start()
        try:
            reader, writer = await asyncio.open_connection(*addr)
            writer.write(encode_frame(1000, 0, PING))
            await writer.drain()
            await _wait_for(lambda: a.stats.frames_received == 1, clock)
            a.send(0, 1000, PONG)  # the learned route answers the client
            expected = bytes(encode_frame(0, 1000, PONG))
            assert await asyncio.wait_for(reader.readexactly(len(expected)), 5.0) == expected
            assert a.stats.messages_dropped == 0
            writer.close()
            await writer.wait_closed()

            def dropped():
                a.send(0, 1000, PONG)
                return a.stats.messages_dropped > 0

            await _wait_for(dropped, clock)
            a.send(0, 1000, PONG)
            assert a.stats.messages_dropped == 2
        finally:
            await a.close()

    run(check())


def test_tasks_are_one_per_static_peer_whatever_the_traffic():
    """k static peers cost k tasks; connections and frames cost none."""

    async def check():
        clock = WallClock(seed=0)
        addrs = {i: ("127.0.0.1", 7954 + i) for i in range(3)}
        replicas = [
            TcpTransport(
                clock, peers={j: a for j, a in addrs.items() if j != i}, listen=addrs[i]
            )
            for i in range(3)
        ]
        client = TcpTransport(clock, peers=addrs)
        transports = replicas + [client]
        static_peers = 3 * 2 + 3
        got = []
        for i, replica in enumerate(replicas):
            replica.register(i, lambda src, msg: got.append(msg))
        client.register(1000, lambda src, msg: got.append(msg))

        def tasks():
            return len(asyncio.all_tasks()) - 1  # this coroutine's own task

        async def settled_tasks():
            # Accepting a connection runs a short-lived task inside asyncio
            # itself; give those time to finish before counting.
            deadline = clock.now + 2.0
            while tasks() != static_peers and clock.now < deadline:
                await asyncio.sleep(0.01)
            return tasks()

        try:
            for transport in transports:
                await transport.start()
            await _wait_for(lambda: sum(t.stats.connects for t in transports) == 9, clock)
            assert await settled_tasks() == static_peers
            raw = [await asyncio.open_connection(*addrs[i]) for i in range(3)]
            for i, (_, writer) in enumerate(raw):
                writer.write(encode_frame(2000 + i, i, PING))
            for _ in range(20):
                client.multicast(1000, [0, 1, 2], PING)
            await _wait_for(lambda: len(got) == 3 + 20 * 3, clock)
            for _ in range(20):  # the replicas have learned the client's route
                for i, replica in enumerate(replicas):
                    replica.multicast(i, [j for j in addrs if j != i], PONG)
                    replica.send(i, 1000, PONG)
            await _wait_for(lambda: len(got) == 3 + 20 * (3 + 6 + 3), clock)
            assert await settled_tasks() == static_peers
            for _, writer in raw:
                writer.close()
        finally:
            for transport in transports:
                await transport.close()

    run(check())


def test_frame_encoding_round_trips():
    frame = encode_frame(3, 9, PING)
    length, src, dst = FRAME_HEADER.unpack_from(frame)
    assert (length, src, dst) == (len(frame) - FRAME_HEADER.size, 3, 9)
    assert decode(bytes(frame), FRAME_HEADER.size) == PING
    # A multicast's later destinations reuse the body: same bytes, new header.
    again = encode_frame(3, 11, PING, body=memoryview(frame)[FRAME_HEADER.size:])
    assert again[FRAME_HEADER.size:] == frame[FRAME_HEADER.size:] == encode(PING)
    assert FRAME_HEADER.unpack_from(again) == (length, 3, 11)


# ---------------------------------------------------------------- KV codec
def test_kv_codec_round_trips():
    assert decode(encode_put("k", "v")) == KVPut("k", "v")
    assert decode(encode_get("k")) == KVGet("k")
    assert decode(encode_cas("k", "a", "b")) == KVCas("k", "a", "b")
    assert decode(encode_put("κλειδί", "τιμή")) == KVPut("κλειδί", "τιμή")


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"\x00",
        # Operations in the retired magic-byte format: no codec version byte.
        b"Z" + b"\x00\x00\x00\x01x",
        b"P",
        b"P\x00\x00\x00\x05ab",
        b"P\x00\x00\x00\x01a\x00\x00\x00\x01b\xff",
        b"P\x00\x00\x00\x02\xff\xfe\x00\x00\x00\x01b",
        encode_config_tx(ConfigTx("add", 9)),  # a real non-KV payload from the log
        b"\x00" * 64,  # benchmark padding
        encode_put("k", "v")[:-1],  # truncated operation
        encode_get("k") + b"\x00",  # trailing byte
        encode_get("k")[:2] + b"\x00\x00\x00\x02\xff\xfe",  # invalid UTF-8 key
        encode(KVResultMsg(RequestId(1, 2), node=0, ok=True, value="v")),  # not an op
        encode(PING),  # any other registered type
    ],
)
def test_kv_decode_rejects_non_kv_payloads(payload):
    machine = KVStateMachine()
    assert machine.apply(payload) is None
    assert (machine.applied, machine.skipped, machine.store) == (0, 1, {})


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


# ------------------------------------------------------------ KV results
def test_only_gets_and_cas_send_results_and_a_put_completes_on_acks():
    """Four replicas and a KV client in one process, on one transport (every
    endpoint local): a put completes on the ack quorum with no result
    message; a get and a cas each draw one result per replica."""
    from repro.app.kv import KVApp, KVClient
    from repro.core.config import ISSConfig
    from repro.core.iss import ISSNode
    from repro.crypto.signatures import KeyStore

    async def check():
        clock = WallClock(seed=0)
        transport = TcpTransport(clock, peers={})
        results = []
        send = transport.send

        def counting_send(src, dst, message, size_bytes=None):
            if isinstance(message, KVResultMsg):
                results.append(message)
            send(src, dst, message, size_bytes)

        transport.send = counting_send
        config = ISSConfig(num_nodes=4, random_seed=1, max_batch_timeout=0.02)
        key_store = KeyStore(deployment_seed=1)
        nodes = []
        for node_id in range(4):
            app = KVApp()
            node = ISSNode(
                node_id=node_id,
                config=config,
                sim=clock,
                network=transport,
                key_store=key_store,
                client_ids=[0],
                on_deliver=app.on_deliver,
            )
            nodes.append(node)
        client = KVClient(0, config, clock, transport, key_store)
        for node in nodes:
            node.start()
        try:
            put = await client.put("k", "v1", timeout=10.0)
            assert (put.ok, put.value) == (None, None)
            await asyncio.sleep(0.1)  # every replica has delivered it by now
            assert results == []
            got = await client.get("k", timeout=10.0)
            assert (got.ok, got.value) == (True, "v1")
            await _wait_for(lambda: len(results) == 4, clock)
            swapped = await client.cas("k", "v1", "v2", timeout=10.0)
            assert (swapped.ok, swapped.value) == (True, "v2")
            await _wait_for(lambda: len(results) == 8, clock)
            await asyncio.sleep(0.1)
            assert sorted(r.node for r in results) == [0, 0, 1, 1, 2, 2, 3, 3]
            assert [r.rid for r in results[:4]] == [got.rid] * 4
            assert [r.rid for r in results[4:]] == [swapped.rid] * 4
        finally:
            for node in nodes:
                node.crash()
            await transport.close()

    run(check())


def test_a_result_counts_under_the_replica_that_sent_it():
    """One replica sending ``f+1`` results under ``f+1`` node names must not
    resolve an operation: its votes count once, under the transport's
    ``src``, and a result naming another node is dropped."""
    from repro.app.kv import KVClient
    from repro.core.config import ISSConfig
    from repro.core.messages import ClientResponseMsg
    from repro.crypto.signatures import KeyStore

    async def check():
        clock = WallClock(seed=0)
        transport = TcpTransport(clock, peers={})
        config = ISSConfig(num_nodes=4, random_seed=1)
        client = KVClient(0, config, clock, transport, KeyStore(deployment_seed=1))
        endpoint, rid = client.client.endpoint, RequestId(0, 0)
        try:
            read = asyncio.ensure_future(client.get("k", timeout=10.0))
            await asyncio.sleep(0)  # submitted: ``rid`` is pending
            for node in range(config.weak_quorum):  # a genuine ack quorum
                transport.send(node, endpoint, ClientResponseMsg(rid, sn=0, node=node))
            for name in (3, 0):  # replica 3 votes as itself, then as node 0
                transport.send(3, endpoint, KVResultMsg(rid, node=name, ok=True, value="x"))
            await asyncio.sleep(0.05)
            assert not read.done()
            transport.send(1, endpoint, KVResultMsg(rid, node=1, ok=True, value="x"))
            outcome = await asyncio.wait_for(read, 1.0)
            assert (outcome.ok, outcome.value) == (True, "x")
        finally:
            await transport.close()

    run(check())
