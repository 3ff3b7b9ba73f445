"""The live asyncio backend: real loopback sockets behind the engine API.

Three areas the sim cannot cover: TCP byte-stream reassembly on a real
socket (split/coalesced segments, pipelined queries), the UDP+TCP
same-port bind-retry dance, and graceful shutdown draining in-flight
work.  Plus the config-surface rejections that keep sim-only features
(checkpoints, faults, supervision) from silently no-opping live.
"""

import asyncio

import pytest

from repro.dns.message import Message
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.replay import ReplayConfig, ResilienceConfig
from repro.replay.backends import (LiveBackend, LiveDnsServer,
                                   LiveQuerier, LiveReplayConfig,
                                   get_backend)
from repro.server.responder import DnsResponder
from repro.trace.record import QueryRecord, Trace

from tests.server.helpers import make_example_zone


def query_wire(qname: str, msg_id: int, proto: str = "tcp") -> bytes:
    record = QueryRecord(time=0.0, src="127.0.0.1", qname=qname,
                         proto=proto, msg_id=msg_id)
    return record.to_message().to_wire()


def make_server() -> LiveDnsServer:
    return LiveDnsServer(DnsResponder(zones=[make_example_zone()]))


# -- TCP framing over real sockets ------------------------------------------


async def _collect_responses(reader, count: int) -> list[Message]:
    wires: list[bytes] = []
    framer = LengthPrefixFramer(wires.append)
    while len(wires) < count:
        data = await asyncio.wait_for(reader.read(65536), 5.0)
        assert data, "connection closed before all responses arrived"
        framer.feed(data)
    return [Message.from_wire(w) for w in wires]


def test_tcp_pipelined_and_split_segments():
    """Two queries coalesced into one segment, then one dribbled in
    3-byte segments (splitting the length prefix itself), all on one
    connection: three answers, ids matched, no desync."""
    async def go():
        server = await make_server().start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # Pipelined: two frames in a single write/segment.
            writer.write(frame_message(query_wire("www.example.com.", 7))
                         + frame_message(query_wire("mail.example.com.",
                                                    8)))
            await writer.drain()
            first = await _collect_responses(reader, 2)
            # Split: one frame trickled 3 bytes at a time.
            blob = frame_message(query_wire("www.example.com.", 9))
            for i in range(0, len(blob), 3):
                writer.write(blob[i:i + 3])
                await writer.drain()
                await asyncio.sleep(0)
            second = await _collect_responses(reader, 1)
            writer.close()
            return first + second
        finally:
            await server.aclose()

    messages = asyncio.run(go())
    assert sorted(m.msg_id for m in messages) == [7, 8, 9]
    for message in messages:
        assert message.rcode == 0
        assert message.answer


def test_tcp_single_connection_serves_many_queries():
    """Connection reuse: 20 pipelined queries on one connection are all
    answered in order of arrival, and the server counted one accept."""
    async def go():
        server = await make_server().start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"".join(
                frame_message(query_wire("www.example.com.", i + 1))
                for i in range(20)))
            await writer.drain()
            messages = await _collect_responses(reader, 20)
            writer.close()
            return messages, server.established
        finally:
            await server.aclose()

    messages, established = asyncio.run(go())
    assert [m.msg_id for m in messages] == list(range(1, 21))
    assert established == 1


# -- UDP+TCP same-port bind retry -------------------------------------------


def test_ephemeral_bind_retries_past_tcp_collision(monkeypatch):
    """When the UDP-chosen ephemeral port is busy on TCP, the pair is
    abandoned and a fresh port drawn."""
    real_start_server = asyncio.start_server
    calls = {"n": 0}

    async def flaky_start_server(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError(98, "address already in use")
        return await real_start_server(*args, **kwargs)

    monkeypatch.setattr(asyncio, "start_server", flaky_start_server)

    async def go():
        server = await make_server().start()
        port = server.port
        await server.aclose()
        return port

    assert asyncio.run(go()) is not None
    assert calls["n"] == 2


def test_bind_attempts_exhausted_raises(monkeypatch):
    async def always_busy(*args, **kwargs):
        raise OSError(98, "address already in use")

    monkeypatch.setattr(asyncio, "start_server", always_busy)

    async def go():
        server = LiveDnsServer(DnsResponder(zones=[make_example_zone()]),
                               bind_attempts=3)
        with pytest.raises(OSError, match="after 3 attempts"):
            await server.start()

    asyncio.run(go())


def test_fixed_busy_port_raises_immediately():
    """A fixed port that is taken cannot be retried into existence."""
    async def go():
        blocker = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0)
        port = blocker.sockets[0].getsockname()[1]
        try:
            server = LiveDnsServer(
                DnsResponder(zones=[make_example_zone()]), port=port)
            with pytest.raises(OSError):
                await server.start()
        finally:
            blocker.close()
            await blocker.wait_closed()

    asyncio.run(go())


# -- graceful shutdown -------------------------------------------------------


def test_shutdown_drains_queued_responses():
    """aclose() flushes replies already queued on open connections
    before tearing them down: a client that wrote a query and then
    lost the race with shutdown still reads its answer, then EOF."""
    async def go():
        server = await make_server().start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(frame_message(query_wire("www.example.com.", 3)))
        await writer.drain()
        await asyncio.sleep(0.05)        # let the server task answer
        await server.aclose(grace=2.0)
        data = await asyncio.wait_for(reader.read(), 5.0)  # to EOF
        writer.close()
        wires: list[bytes] = []
        LengthPrefixFramer(wires.append).feed(data)
        return wires, server.meter.established

    wires, established = asyncio.run(go())
    assert len(wires) == 1
    assert Message.from_wire(wires[0]).msg_id == 3
    assert established == 0


# -- response matching -------------------------------------------------------


def test_late_truncated_datagram_does_not_answer_the_tcp_retry():
    """TC fallback moves a query to the TCP channel, so a duplicate
    truncated UDP answer arriving while it waits there matches nothing:
    the query ends with the TCP answer, at the TCP answer's time."""
    tcp_delay = 0.15
    responder = DnsResponder(zones=[make_example_zone()])

    class TruncatingUdp(asyncio.DatagramProtocol):
        def connection_made(self, transport):
            self.transport = transport

        def datagram_received(self, data, addr):
            reply = bytearray(responder.reply_wire("udp", data, *addr))
            reply[2] |= 0x02                           # the TC bit
            self.transport.sendto(bytes(reply), addr)
            asyncio.get_running_loop().call_later(
                0.03, self.transport.sendto, bytes(reply), addr)

    async def slow_tcp(reader, writer):
        wires: list[bytes] = []
        framer = LengthPrefixFramer(wires.append)
        while not wires and (data := await reader.read(65536)):
            framer.feed(data)
        await asyncio.sleep(tcp_delay)
        for wire in wires:
            writer.write(frame_message(
                responder.reply_wire("tcp", wire, "127.0.0.1", 0)))
        await reader.read()             # hold until the client closes
        writer.close()

    async def go():
        loop = asyncio.get_running_loop()
        for _ in range(8):              # one port number for UDP and TCP
            udp, _ = await loop.create_datagram_endpoint(
                TruncatingUdp, local_addr=("127.0.0.1", 0))
            port = udp.get_extra_info("sockname")[1]
            try:
                tcp = await asyncio.start_server(slow_tcp, "127.0.0.1",
                                                 port)
                break
            except OSError:
                udp.close()
        querier = LiveQuerier("q", "127.0.0.1", port, fast=True,
                              resilience=ResilienceConfig())
        try:
            await querier.replay([QueryRecord(
                time=0.0, src="10.9.0.1", qname="www.example.com.")],
                loop.time())
        finally:
            udp.close()
            tcp.close()
            await tcp.wait_closed()
        return querier

    querier = asyncio.run(go())
    result, = querier.results
    assert result.fell_back and result.answered
    assert result.latency >= tcp_delay


# -- the backend end-to-end ---------------------------------------------------


def live_config(**live_kwargs) -> ReplayConfig:
    live_kwargs.setdefault("speed", 50.0)
    live_kwargs.setdefault("run_deadline", 60.0)
    return ReplayConfig(backend="live", client_instances=1,
                        queriers_per_instance=2, observe=True,
                        live=LiveReplayConfig(**live_kwargs))


def mixed_trace(n: int = 40) -> Trace:
    return Trace([QueryRecord(time=i * 0.02, src=f"10.9.0.{i % 4}",
                              qname="www.example.com.",
                              proto="tcp" if i % 4 == 0 else "udp")
                  for i in range(n)])


def test_live_backend_replays_mixed_udp_tcp_trace():
    backend = LiveBackend([make_example_zone()], config=live_config())
    report = backend.run(mixed_trace())
    assert report.answered_fraction() == 1.0
    assert len(report.results) == 40
    # Sticky sources: the single TCP source reuses one connection.
    assert backend.server.established == 1
    metrics = report.metrics(include_volatile=True)
    assert metrics["replay"]["wall_qps"] > 0
    assert metrics["replay"]["unanswered_at_close"] == 0
    assert metrics["meta"]["sim_time"] > 0


def test_live_backend_until_truncates():
    backend = LiveBackend([make_example_zone()], config=live_config())
    report = backend.run(mixed_trace(), until=0.2)
    assert len(report.results) == 11       # records at t <= 0.2


def test_get_backend_constructs_live():
    backend = get_backend("live", [make_example_zone()],
                          config=live_config())
    assert isinstance(backend, LiveBackend)
    with pytest.raises(ValueError, match="unknown replay backend"):
        get_backend("quantum")


# -- sim-only features are rejected, not ignored ------------------------------


def test_live_rejects_resume_from():
    backend = LiveBackend([make_example_zone()], config=live_config())
    with pytest.raises(ValueError, match="backend='sim'"):
        backend.run(mixed_trace(), resume_from=object())


def test_live_rejects_supervision_and_faults():
    from repro.netsim.faults import FaultPlan
    from repro.replay import SupervisionConfig
    with pytest.raises(ValueError, match="supervision is sim-only"):
        LiveBackend([make_example_zone()], config=ReplayConfig(
            backend="live", mode="distributed",
            supervision=SupervisionConfig()))
    with pytest.raises(ValueError, match="fault injection is sim-only"):
        LiveBackend([make_example_zone()], config=ReplayConfig(
            backend="live", fault_plan=FaultPlan([])))


def test_live_rejects_unreplayable_protocols():
    backend = LiveBackend([make_example_zone()], config=live_config())
    trace = Trace([QueryRecord(time=0.0, src="10.9.0.1",
                               qname="www.example.com.", proto="tls")])
    with pytest.raises(ValueError, match="SetProtocol"):
        backend.run(trace)
