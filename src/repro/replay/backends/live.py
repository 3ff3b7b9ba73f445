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
rule), and reuse one TCP connection per source.  Everything between
send and answer — id matching per channel, retransmission, TC
fallback, reconnects, accounting — is the sim's own
:class:`~repro.replay.querier.QueryCore`.  TCP uses the same
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
from dataclasses import dataclass, field

from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.resources import ResourceMeter
from repro.obs import Observer
from repro.replay.backends.base import ReplayBackend
from repro.replay.querier import ClientWire, QueryCore, QueryResult
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
    """A live querier's one UDP socket, and the core's key for it."""

    def __init__(self, querier: "LiveQuerier"):
        self.querier = querier
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.querier.on_response(self, data)

    def error_received(self, exc) -> None:
        self.querier.socket_errors += 1


class _WallClock:
    """A live querier's clock, shaped like the sim scheduler the query
    core reads: ``now`` in seconds since the replay epoch, and ``obs``."""

    def __init__(self, obs: Observer | None):
        self.obs = obs
        self.loop: asyncio.AbstractEventLoop | None = None
        self.epoch = 0.0

    @property
    def now(self) -> float:
        return self.loop.time() - self.epoch


@dataclass(eq=False)
class _LiveChannel:
    """One per-source TCP connection (a core channel key).  Queries
    sent before it connects wait in *backlog*; its reader pump is
    tracked in :attr:`LiveQuerier._pumps`."""

    src: str
    writer: asyncio.StreamWriter | None = None
    backlog: list[bytes] = field(default_factory=list)


class LiveQuerier(QueryCore):
    """One asyncio replay worker: the live driver of the shared
    :class:`~repro.replay.querier.QueryCore` — ΔT pacing, a bounded
    number of queries in flight, one UDP socket, and one TCP connection
    per source under an LRU cap.  Waits are ``loop.call_later`` timers.
    Without a resilience policy a query is stranded after
    *query_timeout*, so a lossy run never wedges the replay."""

    def __init__(self, name: str, server_addr: str, server_port: int, *,
                 fast: bool = False, speed: float = 1.0,
                 query_timeout: float = 5.0, max_inflight: int = 256,
                 tcp_connection_cap: int = 64, resilience=None,
                 cookies: bool = False,
                 observer: Observer | None = None,
                 query_wires: dict | None = None):
        super().__init__(name, resilience, ClientWire(cookies, query_wires))
        self.clock = _WallClock(observer)
        self.strand_after = query_timeout
        self.server_addr = server_addr
        self.server_port = server_port
        self.fast = fast
        self.speed = speed
        self.max_inflight = max(1, max_inflight)
        self.tcp_connection_cap = max(1, tcp_connection_cap)
        self.socket_errors = 0
        self._udp = _ClientDatagramProtocol(self)
        self._channels: dict[str, _LiveChannel] = {}
        # Every reader pump ever started, including those of channels
        # since evicted or dropped: _aclose reaps them all.
        self._pumps: set[asyncio.Task] = set()
        self._slots: asyncio.Semaphore | None = None

    # -- driving ------------------------------------------------------------

    async def replay(self, records, epoch: float) -> None:
        loop = asyncio.get_running_loop()
        self.clock.loop, self.clock.epoch = loop, epoch
        transport, _ = await loop.create_datagram_endpoint(
            lambda: self._udp,
            remote_addr=(self.server_addr, self.server_port))
        _grow_udp_buffers(transport)
        # One slot per query in flight: bounding them also backpressures
        # pacing once the server falls behind, like the sim's bounded
        # distributor->querier queues.
        self._slots = slots = asyncio.Semaphore(self.max_inflight)
        timer = ReplayTimer()
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
                await slots.acquire()
                self.start(record, scheduled)
            for _ in range(self.max_inflight):     # every query settled
                await slots.acquire()
        finally:
            await self._aclose()

    # -- transport (the QueryCore driver surface) ---------------------------

    def _arm(self, delay: float, p):
        return self.clock.loop.call_later(delay, self.on_timer, p)

    def _settled(self) -> None:
        self._slots.release()

    def _channel(self, src: str, proto: str):
        return self._udp if proto == "udp" else self._channels.get(src)

    def _open(self, src: str, proto: str):
        if proto == "udp":
            return self._udp
        channel = self._channels.pop(src, None)
        if channel is None:
            channel = _LiveChannel(src)
            pump = self.clock.loop.create_task(self._pump_channel(channel))
            self._pumps.add(pump)
            pump.add_done_callback(self._pumps.discard)
        self._channels[src] = channel          # most recently used last
        while len(self._channels) > self.tcp_connection_cap:
            # Evict the least-recently-used source's connection.
            self._drop(next(iter(self._channels.values())), resend=False)
        return channel

    def _transmit(self, key, wire: bytes) -> None:
        if key is self._udp:
            try:
                key.transport.sendto(wire)
            except OSError:
                self.socket_errors += 1
        elif key.writer is not None:
            key.writer.write(frame_message(wire))
        else:
            key.backlog.append(frame_message(wire))

    async def _pump_channel(self, channel: _LiveChannel) -> None:
        """Connect *channel*, flush what was sent meanwhile, and feed
        its responses to the core until the connection ends."""
        framer = LengthPrefixFramer(
            lambda wire: self.on_response(channel, wire))
        try:
            reader, channel.writer = await asyncio.open_connection(
                self.server_addr, self.server_port)
            if self._channels.get(channel.src) is channel:
                channel.writer.writelines(channel.backlog)
                while data := await reader.read(_READ_CHUNK):
                    framer.feed(data)
        except OSError:
            self.socket_errors += 1
        self._drop(channel, resend=True)

    def _drop(self, channel: _LiveChannel, resend: bool) -> None:
        """Forget and close *channel*; the core settles or re-sends
        what was pending on it (a no-op once already dropped)."""
        if self._channels.get(channel.src) is channel:
            del self._channels[channel.src]
        if channel.writer is not None:
            channel.writer.close()
        self.channel_lost(channel, resend)

    # -- teardown -----------------------------------------------------------

    async def _aclose(self) -> None:
        # Normally nothing is pending here; after a run deadline, stop
        # the waits so none fires into a closed socket.
        for table in self.pending.values():
            for p in table.values():
                if p.timer is not None:
                    p.timer.cancel()
        if self._udp.transport is not None:
            self._udp.transport.close()
        for channel in self._channels.values():
            if channel.writer is not None:
                channel.writer.close()
        self._channels.clear()
        # The queries are over (answered, timed out or cancelled), so
        # nothing is left to read: cancel every pump, evicted channels'
        # included, and wait for them, so none outlives the loop.
        pumps = list(self._pumps)
        for pump in pumps:
            pump.cancel()
        await asyncio.gather(*pumps, return_exceptions=True)


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
