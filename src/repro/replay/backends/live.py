"""The live backend: replay over real asyncio loopback sockets.

This is LDplayer's actual operating mode — real sockets, real kernel,
wall-clock time — where the simulator backend is the deterministic
model of it.  One :class:`LiveDnsServer` binds a UDP datagram endpoint
and a TCP stream server on the *same* port number (retrying across
ephemeral ports until a pair is free) and serves the shared
:class:`~repro.server.responder.DnsResponder` answering core — the
same views, answer cache, and response-building rules the simulated
:class:`~repro.server.authoritative.AuthoritativeServer` runs, so the
two backends answer identically by construction.

Queriers (:class:`LiveQuerier`) drive trace timing with the §2.6 ΔT
rule (:class:`~repro.replay.timing.ReplayTimer`) against the event
loop's monotonic clock, emulate per-source stickiness by partitioning
sources across querier tasks (CRC-32, like the sim's split-input
rule), reuse one TCP connection per source, and match responses to
queries by message id.  TCP uses the same
:class:`~repro.netsim.framing.LengthPrefixFramer` as the simulated
transports, so partial reads and pipelined queries on one connection
are reassembled by the identical incremental parser.

The report is the ordinary :class:`~repro.replay.engine.ReplayReport`
with the same metric schema as the sim backend; wall-clock-derived
extras (``replay.wall_qps``, socket-error counts) are registered
*volatile* so default snapshots keep the shared shape.  Determinism
scope: the sim backend is byte-identical per seed; the live backend is
statistically reproducible only (see docs/BACKENDS.md).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
import zlib
from dataclasses import dataclass

from repro.dns.constants import Flag
from repro.dns.wire import WireError
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.resources import ResourceMeter
from repro.obs import Observer
from repro.replay.backends.base import ReplayBackend
from repro.replay.querier import ClientWire, QueryResult
from repro.replay.timing import ReplayTimer
from repro.server.responder import DnsResponder
from repro.trace.pipeline import TracePipeline
from repro.trace.record import Trace

_READ_CHUNK = 65536
_UDP_BUF = 1 << 22      # ask for 4 MiB; the kernel clamps to rmem_max


def _grow_udp_buffers(transport) -> None:
    """Time-compressed replays burst far above the default UDP socket
    buffer (a few hundred datagrams on stock Linux); ask for more so
    loopback loss starts at the kernel's ceiling, not the default."""
    sock = transport.get_extra_info("socket")
    if sock is None:
        return
    import socket as socketlib
    with contextlib.suppress(OSError):
        sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_RCVBUF,
                        _UDP_BUF)
    with contextlib.suppress(OSError):
        sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_SNDBUF,
                        _UDP_BUF)


@dataclass(frozen=True)
class LiveReplayConfig:
    """Live-backend tuning, carried in ``ReplayConfig.live``.

    ``speed`` divides trace time: 2.0 replays a trace twice as fast as
    recorded (the ΔT rule then paces against the compressed
    timeline).  ``query_timeout`` bounds how long an *unresilient*
    query may wait before it is accounted unanswered — the live analogue
    of stranding at close — so a lossy run can never wedge the replay.
    ``run_deadline`` is a wall-clock hard stop for the whole replay
    (CI safety net); ``None`` trusts the per-query timeouts."""

    host: str = "127.0.0.1"
    port: int = 0                 # 0 = ephemeral (with UDP/TCP pair retry)
    bind_attempts: int = 8
    speed: float = 1.0
    query_timeout: float = 5.0
    max_inflight: int = 256       # per querier task
    tcp_connection_cap: int = 64  # per querier; LRU beyond this
    shutdown_grace: float = 1.0   # drain window per connection at close
    run_deadline: float | None = None


class _ServerDatagramProtocol(asyncio.DatagramProtocol):
    """UDP side of :class:`LiveDnsServer`: one datagram, one answer."""

    def __init__(self, server: "LiveDnsServer"):
        self.server = server
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        server = self.server
        server.meter.count_in(server.now(), len(data))
        if server.responder.admission_queue is not None:
            # Graceful degradation (docs/RESILIENCE.md): arrival triage
            # only; the full parse/lookup/encode cost is paid when the
            # bounded queue drains between event-loop turns.
            server.offer_admission(data, addr)
            return
        out = server.responder.reply_wire("udp", data, addr[0], addr[1])
        if out is not None:
            server.meter.count_out(server.now(), len(out))
            self.transport.sendto(out, addr)

    def error_received(self, exc) -> None:
        self.server.socket_errors += 1


class LiveDnsServer:
    """A :class:`DnsResponder` behind real UDP + TCP loopback sockets.

    Both transports share one port number.  With ``port=0`` the kernel
    picks the UDP port and the TCP listener must then land on the same
    number — when another process holds it, the pair is abandoned and
    a fresh ephemeral port is tried, up to ``bind_attempts`` times.  A
    fixed port that is busy raises immediately (retrying could not
    help)."""

    def __init__(self, responder: DnsResponder, host: str = "127.0.0.1",
                 port: int = 0, bind_attempts: int = 8,
                 meter: ResourceMeter | None = None,
                 clock=None):
        self.responder = responder
        self.host = host
        self.requested_port = port
        self.bind_attempts = max(1, bind_attempts)
        self.meter = meter if meter is not None else ResourceMeter()
        self._clock = clock
        self.port: int | None = None
        self.established = 0          # TCP connections accepted
        self.socket_errors = 0
        self._udp_transport = None
        self._tcp_server = None
        self._writers: set[asyncio.StreamWriter] = set()
        # Admission drain (set when the responder has an overload
        # admission queue): one call_soon callback at a time pops one
        # queued query per event-loop turn, so arrivals — and their
        # cheap shed/refuse triage — interleave with the expensive
        # full-service path instead of queueing behind it.
        self._drain_pending = False

    # -- admission control (responder overload config) ------------------

    def offer_admission(self, data: bytes, addr) -> None:
        status, refusal = self.responder.admission_offer(
            data, (data, addr))
        if status == "refused":
            if refusal is not None and self._udp_transport is not None:
                self.meter.count_out(self.now(), len(refusal))
                self._udp_transport.sendto(refusal, addr)
            return
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        if self._drain_pending or not self.responder.admission_queue:
            return
        self._drain_pending = True
        asyncio.get_running_loop().call_soon(self._drain_admitted)

    def _drain_admitted(self) -> None:
        self._drain_pending = False
        if not self.responder.admission_queue:
            return
        data, addr = self.responder.admission_pop()
        out = self.responder.reply_wire("udp", data, addr[0], addr[1])
        if out is not None and self._udp_transport is not None:
            self.meter.count_out(self.now(), len(out))
            self._udp_transport.sendto(out, addr)
        self._schedule_drain()

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    async def start(self) -> "LiveDnsServer":
        loop = asyncio.get_running_loop()
        last_exc: OSError | None = None
        for _ in range(self.bind_attempts):
            try:
                transport, _ = await loop.create_datagram_endpoint(
                    lambda: _ServerDatagramProtocol(self),
                    local_addr=(self.host, self.requested_port))
            except OSError as exc:
                if self.requested_port != 0:
                    raise
                last_exc = exc
                continue
            _grow_udp_buffers(transport)
            port = transport.get_extra_info("sockname")[1]
            try:
                self._tcp_server = await asyncio.start_server(
                    self._serve_connection, self.host, port)
            except OSError as exc:
                # The UDP-chosen ephemeral port is taken on TCP by
                # someone else: release the pair and draw again.
                transport.close()
                if self.requested_port != 0:
                    raise
                last_exc = exc
                continue
            self._udp_transport = transport
            self.port = port
            return self
        raise OSError(
            f"no free UDP+TCP port pair on {self.host} after "
            f"{self.bind_attempts} attempts") from last_exc

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.established += 1
        self.meter.established += 1
        self._writers.add(writer)
        peer = writer.get_extra_info("peername") or (self.host, 0)
        framer = LengthPrefixFramer(
            lambda wire: self._answer_stream(writer, wire, peer))
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                self.meter.count_in(self.now(), len(data))
                # feed() invokes the answer callback once per complete
                # message, however the segments split or coalesced.
                framer.feed(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            self.socket_errors += 1
        finally:
            self._writers.discard(writer)
            self.meter.established -= 1
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _answer_stream(self, writer: asyncio.StreamWriter, wire: bytes,
                       peer) -> None:
        out = self.responder.reply_wire("tcp", wire, peer[0], peer[1])
        if out is not None and not writer.is_closing():
            framed = frame_message(out)
            self.meter.count_out(self.now(), len(framed))
            writer.write(framed)

    async def aclose(self, grace: float = 1.0) -> None:
        """Graceful shutdown: stop accepting, flush every reply already
        queued on open connections (in-flight queries are answered
        synchronously as their bytes arrive, so draining the write
        buffers completes them), then tear the sockets down."""
        if self._tcp_server is not None:
            self._tcp_server.close()
            with contextlib.suppress(Exception):
                await self._tcp_server.wait_closed()
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                await asyncio.wait_for(writer.drain(), grace)
            writer.close()
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                await asyncio.wait_for(writer.wait_closed(), grace)
        if self._udp_transport is not None:
            self._udp_transport.close()
            self._udp_transport = None
        self._tcp_server = None


class _ClientDatagramProtocol(asyncio.DatagramProtocol):
    def __init__(self, querier: "LiveQuerier"):
        self.querier = querier

    def connection_made(self, transport) -> None:
        pass

    def datagram_received(self, data: bytes, addr) -> None:
        self.querier._on_response_wire(data)

    def error_received(self, exc) -> None:
        self.querier.socket_errors += 1


@dataclass
class _LiveChannel:
    """One per-source TCP connection (its reader pump is tracked in
    :attr:`LiveQuerier._pumps`)."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter


class LiveQuerier:
    """One asyncio replay worker: ΔT-paced sends, id-matched responses.

    Duck-types the slice of :class:`~repro.replay.querier.Querier` the
    report and metrics assembly read (results, resilience counters,
    ``pending_count``), so :class:`~repro.replay.engine.ReplayReport`
    works unchanged."""

    def __init__(self, name: str, server_addr: str, server_port: int, *,
                 fast: bool = False, speed: float = 1.0,
                 query_timeout: float = 5.0, max_inflight: int = 256,
                 tcp_connection_cap: int = 64, resilience=None,
                 cookies: bool = False,
                 observer: Observer | None = None,
                 query_wires: dict | None = None):
        self.name = name
        self.server_addr = server_addr
        self.server_port = server_port
        self.fast = fast
        self.speed = speed
        self.query_timeout = query_timeout
        self.max_inflight = max(1, max_inflight)
        self.tcp_connection_cap = max(1, tcp_connection_cap)
        self.resilience = resilience
        self.wire = ClientWire(cookies, query_wires)
        self.observer = observer
        self.results: list[QueryResult] = []
        self.sent = 0
        self.unanswered_at_close = 0
        self.timeouts = 0
        self.retransmits = 0
        self.tcp_fallbacks = 0
        self.reconnects = 0
        self.recovered = 0
        self.malformed = 0
        self.failed_over = 0
        self.socket_errors = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._epoch = 0.0
        self._udp_transport = None
        self._channels: dict[str, _LiveChannel] = {}
        # Every reader pump ever started, including those of channels
        # since evicted or dropped: _aclose reaps them all.
        self._pumps: set[asyncio.Task] = set()
        self._pending: dict[int, tuple[QueryResult, asyncio.Future]] = {}
        self._msg_seq = 0

    # -- driving ------------------------------------------------------------

    async def replay(self, records, epoch: float) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._epoch = epoch
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _ClientDatagramProtocol(self),
            remote_addr=(self.server_addr, self.server_port))
        _grow_udp_buffers(transport)
        self._udp_transport = transport
        timer = ReplayTimer()
        inflight = asyncio.Semaphore(self.max_inflight)
        tasks: list[asyncio.Task] = []
        try:
            for record in records:
                now = loop.time()
                if self.fast:
                    scheduled = now - epoch
                else:
                    scaled = record.time / self.speed
                    if not timer.synchronized:
                        timer.sync(scaled, now)
                    delay = timer.delay_for(scaled, now)
                    scheduled = (now + delay) - epoch
                    if delay > 0:
                        await asyncio.sleep(delay)
                # Bounding in-flight queries also backpressures pacing
                # once the server falls behind, like the sim's bounded
                # distributor->querier queues.
                await inflight.acquire()
                task = loop.create_task(self._query(record, scheduled))
                task.add_done_callback(lambda _t: inflight.release())
                tasks.append(task)
            if tasks:
                failures = [r for r in await asyncio.gather(
                    *tasks, return_exceptions=True)
                    if isinstance(r, Exception)]
                self.socket_errors += len(failures)
        finally:
            await self._aclose()

    async def _query(self, record, scheduled: float) -> None:
        msg_id = self._next_msg_id()
        wire = self.wire.query(record, msg_id)
        now = self._loop.time() - self._epoch
        result = QueryResult(record=record, send_time=now,
                             scheduled_time=scheduled)
        self.results.append(result)
        self.sent += 1
        obs = self.observer
        if obs is not None:
            obs.metrics.counter("replay.queries_sent").inc()
            obs.metrics.counter(f"replay.queries_{record.proto}").inc()
            obs.metrics.histogram("replay.timing_error").record(
                now - scheduled)
            obs.tracer.emit("querier.send", scheduled, now,
                            detail=record.proto)
        try:
            if record.proto == "udp":
                await self._query_udp(record, wire, msg_id, result)
            else:
                await self._query_stream(record, wire, msg_id, result)
        finally:
            self._pending.pop(msg_id, None)

    # -- UDP ----------------------------------------------------------------

    async def _query_udp(self, record, wire: bytes, msg_id: int,
                         result: QueryResult) -> None:
        fut = self._new_pending(msg_id, result)
        policy = self.resilience
        while True:
            try:
                self._udp_transport.sendto(wire)
            except OSError:
                self.socket_errors += 1
            wait = (policy.wait_for(result.attempts)
                    if policy is not None else self.query_timeout)
            try:
                flags, rcode, edns, size = await asyncio.wait_for(
                    asyncio.shield(fut), wait)
            except asyncio.TimeoutError:
                if policy is not None \
                        and result.attempts <= policy.max_retries:
                    # Same datagram, same message id (RFC 1035 §4.2.1):
                    # a late answer to any attempt still matches.
                    result.attempts += 1
                    self.retransmits += 1
                    self._count("replay.retransmits")
                    continue
                self._strand(result)
                return
            if (policy is not None and policy.tcp_fallback
                    and flags & Flag.TC and not result.fell_back):
                result.fell_back = True
                self.tcp_fallbacks += 1
                self._count("replay.tcp_fallbacks")
                await self._fallback_tcp(record, wire, msg_id, result)
                return
            self._note_recovered(result)
            self._complete(result, rcode, edns, size)
            return

    async def _fallback_tcp(self, record, wire: bytes, msg_id: int,
                            result: QueryResult) -> None:
        """The UDP answer was truncated: retry over the source's TCP
        channel (RFC 7766), keeping the original send_time so the
        measured latency includes the fallback."""
        fut = self._new_pending(msg_id, result)
        if not await self._send_framed(record.src, frame_message(wire),
                                       result):
            return
        wait = (self.resilience.wait_for(result.attempts)
                if self.resilience is not None else self.query_timeout)
        try:
            _flags, rcode, edns, size = await asyncio.wait_for(
                asyncio.shield(fut), wait)
        except asyncio.TimeoutError:
            self._strand(result)
            return
        self._note_recovered(result)
        self._complete(result, rcode, edns, size)

    # -- TCP ----------------------------------------------------------------

    async def _query_stream(self, record, wire: bytes, msg_id: int,
                            result: QueryResult) -> None:
        fut = self._new_pending(msg_id, result)
        if not await self._send_framed(record.src, frame_message(wire),
                                       result):
            return
        wait = (self.resilience.wait_for(result.attempts)
                if self.resilience is not None else self.query_timeout)
        try:
            _flags, rcode, edns, size = await asyncio.wait_for(
                asyncio.shield(fut), wait)
        except asyncio.TimeoutError:
            self._strand(result)
            return
        self._note_recovered(result)
        self._complete(result, rcode, edns, size)

    async def _send_framed(self, src: str, framed: bytes,
                           result: QueryResult) -> bool:
        """Write on the source's connection, reconnecting once when the
        policy allows it; False means the query could not be sent and
        has been accounted."""
        for attempt in (1, 2):
            try:
                channel = await self._channel_for(src)
                channel.writer.write(framed)
                await channel.writer.drain()
                return True
            except OSError:
                self.socket_errors += 1
                self._drop_channel(src)
                if (self.resilience is not None
                        and self.resilience.reconnect and attempt == 1):
                    result.attempts += 1
                    self.reconnects += 1
                    self._count("replay.reconnects")
                    continue
                self._strand(result)
                return False
        return False

    async def _channel_for(self, src: str) -> _LiveChannel:
        channel = self._channels.pop(src, None)
        if channel is not None and not channel.writer.is_closing():
            self._channels[src] = channel      # refresh LRU position
            return channel
        if channel is not None:
            self._close_channel(channel)
        reader, writer = await asyncio.open_connection(
            self.server_addr, self.server_port)
        raced = self._channels.get(src)
        if raced is not None and not raced.writer.is_closing():
            # Another query from this source connected while this one
            # waited: share that connection instead of orphaning it.
            writer.close()
            return raced
        channel = _LiveChannel(reader=reader, writer=writer)
        pump = asyncio.get_running_loop().create_task(
            self._pump_channel(channel))
        self._pumps.add(pump)
        pump.add_done_callback(self._pumps.discard)
        self._channels[src] = channel
        while len(self._channels) > self.tcp_connection_cap:
            # Evict the least-recently-used source's connection; its
            # straggler responses, if any, resolve as timeouts.
            oldest = next(iter(self._channels))
            self._drop_channel(oldest)
        return channel

    async def _pump_channel(self, channel: _LiveChannel) -> None:
        framer = LengthPrefixFramer(self._on_response_wire)
        try:
            while True:
                data = await channel.reader.read(_READ_CHUNK)
                if not data:
                    break
                framer.feed(data)
        except (ConnectionResetError, BrokenPipeError, OSError):
            self.socket_errors += 1

    def _drop_channel(self, src: str) -> None:
        channel = self._channels.pop(src, None)
        if channel is not None:
            self._close_channel(channel)

    def _close_channel(self, channel: _LiveChannel) -> None:
        if not channel.writer.is_closing():
            channel.writer.close()

    # -- matching / accounting ----------------------------------------------

    def _new_pending(self, msg_id: int,
                     result: QueryResult) -> asyncio.Future:
        fut = self._loop.create_future()
        self._pending[msg_id] = (result, fut)
        return fut

    def _on_response_wire(self, payload: bytes) -> None:
        try:
            msg_id, flags, rcode, edns = self.wire.decode_response(payload)
        except WireError:
            self.malformed += 1
            self._count("replay.malformed_responses")
            return
        entry = self._pending.get(msg_id)
        if entry is None:
            return
        result, fut = entry
        if result.response_time is None and not fut.done():
            fut.set_result((flags, rcode, edns, len(payload)))

    def _next_msg_id(self) -> int:
        for _ in range(0x10000):
            self._msg_seq = (self._msg_seq + 1) & 0xFFFF
            if self._msg_seq not in self._pending:
                return self._msg_seq
        raise RuntimeError(f"{self.name}: 65536 queries pending; "
                           "no free message id")

    def _strand(self, result: QueryResult) -> None:
        """The wait is over and no answer came.  With a resilience
        policy this is a timeout (the policy is exhausted); without
        one it is the live analogue of the sim's unanswered-at-close
        stranding — either way the query never wedges the replay."""
        if self.resilience is not None:
            result.timed_out = True
            self.timeouts += 1
            self._count("replay.timeouts")
        else:
            self.unanswered_at_close += 1

    def _note_recovered(self, result: QueryResult) -> None:
        if result.attempts > 1 or result.fell_back:
            self.recovered += 1
            self._count("replay.recovered")

    def _complete(self, result: QueryResult, rcode: int, edns,
                  size: int) -> None:
        result.response_time = self._loop.time() - self._epoch
        result.response_size = size
        result.rcode = rcode
        self.wire.learn(result.record.src, edns)
        obs = self.observer
        if obs is not None:
            obs.metrics.counter("replay.responses").inc()
            obs.metrics.histogram("replay.latency").record(
                result.response_time - result.send_time)
            obs.tracer.emit("querier.response", result.send_time,
                            result.response_time,
                            detail=result.record.proto)

    def _count(self, name: str) -> None:
        if self.observer is not None:
            self.observer.metrics.counter(name).inc()

    # -- teardown / stats ---------------------------------------------------

    async def _aclose(self) -> None:
        if self._udp_transport is not None:
            self._udp_transport.close()
            self._udp_transport = None
        for channel in self._channels.values():
            self._close_channel(channel)
        self._channels.clear()
        # The queries are over (answered, timed out or cancelled), so
        # nothing is left to read: cancel every pump, evicted channels'
        # included, and wait for them, so none outlives the loop.
        pumps = list(self._pumps)
        for pump in pumps:
            pump.cancel()
        await asyncio.gather(*pumps, return_exceptions=True)

    def latencies(self) -> list[float]:
        return [r.latency for r in self.results if r.latency is not None]

    def answered_fraction(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.answered) \
            / len(self.results)

    def pending_count(self) -> int:
        return len(self._pending)


class _LiveClock:
    """Duck-types the ``.now`` the report reads off the simulator."""

    def __init__(self, now: float = 0.0):
        self.now = now


class _LiveHost:
    """Duck-types the ``.meter`` host slot with real measurements."""

    def __init__(self, name: str = "live-server"):
        self.name = name
        self.meter = ResourceMeter(cores=os.cpu_count() or 1)


def hierarchy_views(zones, address_book=None):
    """The §2.4 meta-DNS-server's view wiring, reusable live: one
    split-horizon view per nameserver address, derived from each zone's
    apex NS RRset (through glue or *address_book*).

    Caveat for the live backend: views key on the *transport* source
    address, and every loopback query arrives from 127.0.0.1 — the
    sim's proxies rewrite sources, real sockets do not.  Add a
    catch-all or a 127.0.0.1 view when serving these live."""
    from repro.server.metadns import nameserver_addresses
    from repro.server.views import ViewSelector
    views = ViewSelector()
    zones = list(zones)
    unmatched = []
    for zone in zones:
        addrs = nameserver_addresses(zone, parent_zones=zones,
                                     address_book=address_book)
        if not addrs:
            unmatched.append(zone)
        for addr in addrs:
            views.add_address_view(addr, [zone])
    if unmatched:
        names = ", ".join(z.origin.to_text() for z in unmatched)
        raise ValueError(
            f"zones with no resolvable nameserver addresses: {names}")
    return views


class LiveBackend(ReplayBackend):
    """Replay a trace over real loopback sockets in wall-clock time."""

    name = "live"

    def __init__(self, zones=None, *, views=None, config=None,
                 udp_payload_limit: int = 4096,
                 log_queries: bool = False, answer_cache: bool = True,
                 answer_cache_size: int = 100_000, overload=None):
        from repro.replay.engine import ReplayConfig, _validate_config
        self.config = config = config or ReplayConfig(backend="live")
        _validate_config(config)
        if config.backend != "live":
            raise ValueError(
                f"LiveBackend requires backend='live', got "
                f"{config.backend!r}")
        if config.supervision is not None:
            raise ValueError(
                "supervision is sim-only: heartbeats/checkpoints ride "
                "the simulated control plane (docs/BACKENDS.md)")
        if config.fault_plan is not None:
            raise ValueError(
                "fault injection is sim-only: faults are applied to "
                "the simulated fabric (docs/BACKENDS.md)")
        self.live = config.live or LiveReplayConfig()
        self.observer = (Observer(trace_capacity=config.trace_capacity)
                         if config.observe else None)
        self.host = _LiveHost()
        self._wall = {"loop": None, "epoch": 0.0}
        self.responder = DnsResponder(
            zones=zones, views=views,
            udp_payload_limit=udp_payload_limit,
            log_queries=log_queries, answer_cache=answer_cache,
            answer_cache_size=answer_cache_size,
            clock=self._wall_now, observer=self.observer,
            overload=overload)
        self.server: LiveDnsServer | None = None
        self.queriers: list[LiveQuerier] = []
        self.deadline_hit = False

    def _wall_now(self) -> float:
        loop = self._wall["loop"]
        if loop is None:
            return 0.0
        return loop.time() - self._wall["epoch"]

    # -- running ------------------------------------------------------------

    def _materialize(self, trace) -> Trace:
        if isinstance(trace, TracePipeline):
            if self.observer is not None:
                trace = trace.with_observer(self.observer)
            return trace.collect()
        if isinstance(trace, Trace):
            return trace
        return Trace(list(trace))

    def run(self, trace, *, extra_time=None, until=None,
            resume_from=None):
        """Replay *trace* over loopback sockets and report.

        *extra_time* has no live meaning (the run drains by awaiting
        every query task, each bounded by its timeout) and is accepted
        for API parity.  *until* truncates the trace at that timestamp,
        matching the sim's stop-the-clock semantics."""
        if resume_from is not None:
            raise ValueError(
                "checkpoint/resume requires backend='sim': checkpoints "
                "capture simulator state (docs/BACKENDS.md)")
        del extra_time
        records = self._materialize(trace).sorted().records
        if until is None:
            until = self.config.until
        if until is not None:
            records = [r for r in records if r.time <= until]
        for record in records:
            if record.proto not in ("udp", "tcp"):
                raise ValueError(
                    f"the live backend replays udp/tcp, but a record "
                    f"uses proto={record.proto!r}; rewrite the trace "
                    "(e.g. trace.pipeline SetProtocol) or use "
                    "backend='sim'")
        return asyncio.run(self._replay(records))

    async def _replay(self, records):
        from repro.replay.engine import ReplayReport
        loop = asyncio.get_running_loop()
        self._wall["loop"] = loop
        self._wall["epoch"] = loop.time()
        meter = self.host.meter
        live = self.live
        server = LiveDnsServer(
            self.responder, host=live.host, port=live.port,
            bind_attempts=live.bind_attempts, meter=meter,
            clock=self._wall_now)
        await server.start()
        self.server = server
        config = self.config
        n = config.client_instances * config.queriers_per_instance
        query_wires: dict = {}          # shared by every querier
        self.queriers = [
            LiveQuerier(
                f"live-querier-{i}", live.host, server.port,
                fast=config.fast, speed=live.speed,
                query_timeout=live.query_timeout,
                max_inflight=live.max_inflight,
                tcp_connection_cap=live.tcp_connection_cap,
                resilience=config.resilience, cookies=config.cookies,
                observer=self.observer, query_wires=query_wires)
            for i in range(n)]
        parts = self._partition(records, n)
        cpu_start = time.process_time()
        epoch = loop.time()
        self._wall["epoch"] = epoch
        try:
            gathered = asyncio.gather(
                *(querier.replay(part, epoch)
                  for querier, part in zip(self.queriers, parts)
                  if part),
                return_exceptions=True)
            if live.run_deadline is not None:
                try:
                    await asyncio.wait_for(gathered, live.run_deadline)
                except asyncio.TimeoutError:
                    self.deadline_hit = True
            else:
                await gathered
        finally:
            await server.aclose(live.shutdown_grace)
        elapsed = loop.time() - epoch
        meter.charge_cpu(time.process_time() - cpu_start)
        meter.memory = self._rss_bytes()
        meter.take_sample(elapsed)
        self._record_volatile(elapsed, server)
        if config.check and not self.deadline_hit:
            # Same invariants as the sim's ReplayConfig(check=True)
            # scans, verified once after the tasks drain (a deadline
            # hit cancels tasks mid-flight, so accounting is allowed
            # to be incomplete then).
            from repro.check.invariants import (verify_queriers,
                                                verify_responder)
            verify_queriers(self.queriers,
                            sticky=config.sticky_sources,
                            expected_results=len(records),
                            context="live replay")
            verify_responder(self.responder, context="live server")
        results: list[QueryResult] = []
        for querier in self.queriers:
            results.extend(querier.results)
        results.sort(key=lambda r: r.send_time)
        return ReplayReport(results=results, queriers=self.queriers,
                            sim=_LiveClock(elapsed),
                            server_host=self.host,
                            observer=self.observer, supervisor=None)

    def _partition(self, records, n: int) -> list[list]:
        """Same-source records stick to one querier (CRC-32, the sim's
        split-input rule), preserving per-source connection reuse."""
        if n == 1:
            return [list(records)]
        parts: list[list] = [[] for _ in range(n)]
        if self.config.sticky_sources:
            for record in records:
                parts[zlib.crc32(record.src.encode()) % n].append(record)
        else:
            for index, record in enumerate(records):
                parts[index % n].append(record)
        return parts

    @staticmethod
    def _rss_bytes() -> int:
        try:
            import resource
            # Linux reports ru_maxrss in KiB.
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
                * 1024
        except Exception:
            return 0

    def _record_volatile(self, elapsed: float,
                         server: LiveDnsServer) -> None:
        """Live-only wall-clock metrics: registered volatile so the
        default (deterministic) snapshot keeps the sim's schema."""
        if self.observer is None:
            return
        metrics = self.observer.metrics
        sent = sum(q.sent for q in self.queriers)
        metrics.gauge("replay.wall_seconds", volatile=True).set(elapsed)
        metrics.gauge("replay.wall_qps", volatile=True).set(
            sent / elapsed if elapsed > 0 else 0.0)
        errors = (server.socket_errors
                  + sum(q.socket_errors for q in self.queriers))
        if errors:
            metrics.counter("replay.socket_errors",
                            volatile=True).inc(errors)
        if self.deadline_hit:
            metrics.counter("replay.deadline_hit", volatile=True).inc()

    def close(self) -> None:
        self.server = None
