"""Queriers: the processes that actually talk DNS to the server (§2.6).

A querier owns network sockets on its client-instance host and replays
the query records routed to it:

* **per-source sockets** — all queries from the same original source IP
  use the same socket/connection while it is open; new sources open new
  sockets.  The server therefore "observes queries from the same set of
  host addresses but with a range of different port numbers, which
  emulates different queries from the same sources";
* **connection reuse** — TCP connections and TLS sessions are kept per
  source and reused until the server's idle timeout closes them; the
  next query from that source pays a fresh handshake;
* **timing** — each record is scheduled with the ΔT rule plus the
  host's modelled timer slop, and the send serializes through the
  querier process's send-path occupancy (jitter.py);
* **latency measurement** — every query is matched to its response
  (message id per socket) and its latency recorded, feeding Fig 15;
* **resilience** (opt-in via :class:`ResilienceConfig`) — per-query
  timeouts, exponential-backoff UDP retransmission with the same
  message id (RFC 1035 §4.2.1 semantics), TC-bit fallback to TCP
  (RFC 7766), and one reconnect-and-resend for stream channels that
  die with queries outstanding.  Degradation is recorded on the
  :class:`QueryResult` (``attempts``/``timed_out``/``fell_back``)
  instead of silently stranding queries.

Configuration rides in a single keyword-only :class:`QuerierConfig`.
(The pre-1.2 keyword tail — ``jitter_seed``, ``dns_port``,
``tls_port``, ``quic_port``, ``nagle`` passed directly — warned for
one release and has been removed; passing it now raises ``TypeError``.)

Supervision hooks (see :mod:`repro.replay.supervisor`): a querier can
:meth:`crash`, after which it marks every awaiting-response query
``failed_over``, stops sending, and parks records routed to it as
*orphans* for the supervisor to re-dispatch to a surviving querier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.constants import DNS_PORT, Flag
from repro.dns.message import Message
from repro.dns.wire import WireError
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.host import Host
from repro.netsim.jitter import SendPathModel
from repro.netsim.quic import QuicClient
from repro.netsim.tls import TlsConnection
from repro.replay.timing import ReplayTimer
from repro.trace.record import QueryRecord

TLS_PORT = 853
QUIC_PORT = 8853


@dataclass(frozen=True)
class ResilienceConfig:
    """Client-side fault tolerance knobs (off when ``None`` is passed).

    ``timeout`` is the wait after the first send; each further wait is
    multiplied by ``backoff``.  ``max_retries`` counts UDP
    retransmissions beyond the first send, so a query is attempted at
    most ``1 + max_retries`` times before it is marked ``timed_out``."""

    timeout: float = 2.0
    max_retries: int = 3
    backoff: float = 2.0
    tcp_fallback: bool = True     # TC bit -> retry the query over TCP
    reconnect: bool = True        # re-send pending stream queries once

    def wait_for(self, attempt: int) -> float:
        """Timeout after send *attempt* (1-based): t * b^(attempt-1)."""
        return self.timeout * self.backoff ** (attempt - 1)


@dataclass
class QuerierConfig:
    """All per-querier knobs in one keyword-only object.

    Replaces the keyword tail that used to grow on
    :class:`Querier.__init__` — pass
    ``Querier(host, addr, config=QuerierConfig(...))``."""

    jitter_seed: int | None = None
    dns_port: int = DNS_PORT
    tls_port: int = TLS_PORT
    quic_port: int = QUIC_PORT
    nagle: bool = True
    resilience: ResilienceConfig | None = None
    # RFC 7873: attach a COOKIE option to every query (per emulated
    # source), learning the server cookie from each source's responses.
    cookies: bool = False


@dataclass
class QueryResult:
    record: QueryRecord
    send_time: float
    scheduled_time: float
    response_time: float | None = None
    response_size: int = 0
    rcode: int | None = None
    attempts: int = 1             # sends performed (retransmits included)
    timed_out: bool = False       # gave up after exhausting the policy
    fell_back: bool = False       # TC bit moved the query from UDP to TCP
    failed_over: bool = False     # was awaiting a response when its
    #                               querier crashed (answer lost)

    @property
    def latency(self) -> float | None:
        if self.response_time is None:
            return None
        return self.response_time - self.send_time

    @property
    def answered(self) -> bool:
        return self.response_time is not None


@dataclass
class _Inflight:
    """Retransmission bookkeeping for one pending query."""

    wire: bytes                   # datagram (UDP) or framed bytes (stream)
    timer: object | None = None   # scheduler Event for the timeout
    resent: bool = False          # stream reconnect-resend already spent

    def cancel(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


@dataclass
class _TcpChannel:
    """One per-source TCP/TLS connection with its framer and pending map."""

    conn: object
    session: object                      # TcpConnection or TlsConnection
    framer: LengthPrefixFramer
    key: tuple = ()
    pending: dict[int, QueryResult] = field(default_factory=dict)
    inflight: dict[int, _Inflight] = field(default_factory=dict)
    established: bool = False
    backlog: list[bytes] = field(default_factory=list)


def attach_cookie(message, src: str,
                  server_cookies: dict[str, bytes]) -> None:
    """RFC 7873 client side: put a COOKIE option on *message* — the
    deterministic client cookie for the emulated *src*, plus the server
    cookie previously learned from that source's responses (none on
    first contact)."""
    from repro.dns.constants import EDNS_COOKIE
    from repro.dns.message import Edns, set_edns_option
    from repro.server.overload import client_cookie
    if message.edns is None:
        message.edns = Edns()
    cookie = client_cookie(src)
    server = server_cookies.get(src)
    if server is not None:
        cookie += server
    message.edns.options = set_edns_option(
        message.edns.options, EDNS_COOKIE, cookie)


def learn_cookie(edns, src: str, server_cookies: dict[str, bytes]) -> None:
    """Remember the server cookie echoed in a response's *edns* so
    *src*'s next query can prove it received this one (RFC 7873 §5.3)."""
    from repro.dns.constants import EDNS_COOKIE
    from repro.dns.message import get_edns_option
    if edns is None:
        return
    data = get_edns_option(edns.options, EDNS_COOKIE)
    if data is not None and 16 <= len(data) <= 40:
        server_cookies[src] = data[8:]


# Questions a query-wire table holds; beyond this the oldest is
# evicted first, as in the server's answer cache.
QUERY_WIRE_CACHE_SIZE = 1024


class ClientWire:
    """The client side of the wire, shared by both backends' queriers:
    query bytes for a trace record, and the fields a querier reads from
    a response.  The client mirror of the server's answer cache.

    * **Query wire** is precompiled per question — (qname, qtype,
      qclass, rd, do, edns_payload) — as the wire minus its 2-byte
      message id, so a send is the id followed by the stored tail.
      A tail is a pure function of its key, so the queriers of one
      replay share one table (*query_wires*), which keeps memory flat
      however many queriers run.
      With ``cookies`` on, every query carries per-source cookie
      state, so it is built and encoded in full, and each response's
      server cookie is learned (RFC 7873).  Server cookies are not
      checkpointed: a resumed run re-learns them on first contact.
    * **Response decode** runs the full parser, so a response is
      rejected (``WireError``) exactly when ``Message.from_wire``
      rejects it.  It remembers only the last successfully decoded
      wire minus its id: an identical tail reuses the stored
      ``(flags, rcode, edns)``.  One entry covers the case that
      matters — a stream of identical answers — and keeps memory flat
      (DESIGN.md §5).
    """

    def __init__(self, cookies: bool = False,
                 query_wires: dict[tuple, bytes] | None = None):
        self.cookies = cookies
        self.server_cookies: dict[str, bytes] = {}
        self.query_wires = query_wires if query_wires is not None else {}
        self._last_tail: bytes | None = None
        self._last: tuple = ()

    def query(self, record: QueryRecord, msg_id: int) -> bytes:
        """The wire of *record*'s query under message id *msg_id*."""
        if self.cookies:
            message = record.to_message()
            message.msg_id = msg_id
            attach_cookie(message, record.src, self.server_cookies)
            return message.to_wire()
        key = (record.qname, record.qtype, record.qclass, record.rd,
               record.do, record.edns_payload)
        queries = self.query_wires
        tail = queries.get(key)
        if tail is None:
            tail = record.to_message().to_wire()[2:]
            if len(queries) >= QUERY_WIRE_CACHE_SIZE:
                del queries[next(iter(queries))]
            queries[key] = tail
        return msg_id.to_bytes(2, "big") + tail

    def decode_response(self, payload: bytes) -> tuple:
        """``(msg_id, flags, rcode, edns)`` of a response; raises
        ``WireError`` for a malformed one (never memoized)."""
        tail = payload[2:]
        if tail != self._last_tail:
            message = Message.from_wire(payload)
            self._last = (message.flags, message.rcode, message.edns)
            self._last_tail = tail
        return (int.from_bytes(payload[:2], "big"), *self._last)

    def learn(self, src: str, edns) -> None:
        """Note a matched response from *src* (cookie runs only)."""
        if self.cookies:
            learn_cookie(edns, src, self.server_cookies)


def _result_to_dict(result: QueryResult) -> dict:
    """Round-trippable form of one result (checkpoint payload)."""
    from dataclasses import asdict
    out = asdict(result)
    out["record"] = asdict(result.record)
    return out


def _result_from_dict(data: dict) -> QueryResult:
    data = dict(data)
    data["record"] = QueryRecord(**data["record"])
    return QueryResult(**data)


class Querier:
    """One querier process on a client-instance host."""

    def __init__(self, host: Host, server_addr: str, name: str = "",
                 config: QuerierConfig | None = None,
                 query_wires: dict[tuple, bytes] | None = None):
        self.config = config = config or QuerierConfig()
        self.host = host
        self.server_addr = server_addr
        self.name = name or f"querier@{host.name}"
        self.dns_port = config.dns_port
        self.tls_port = config.tls_port
        self.quic_port = config.quic_port
        self.nagle = config.nagle
        self.resilience = config.resilience
        self.wire = ClientWire(config.cookies, query_wires)
        self.timer = ReplayTimer()
        self.sendpath = (SendPathModel(seed=config.jitter_seed)
                         if config.jitter_seed is not None
                         else host.sendpath)
        self.results: list[QueryResult] = []
        self.sent = 0
        self.unanswered_at_close = 0
        # Resilience accounting (always maintained; obs counters mirror
        # these when an observer is attached).
        self.timeouts = 0
        self.retransmits = 0
        self.tcp_fallbacks = 0
        self.reconnects = 0
        self.recovered = 0
        self.malformed = 0
        # Supervision state (repro.replay.supervisor).  `failed_over`
        # counts queries that were awaiting a response when this
        # querier crashed; orphans are records routed here after (or
        # scheduled before) the crash, awaiting re-dispatch.
        self.crashed = False
        self.failed_over = 0
        self._orphans: list[QueryRecord] = []
        # Records handed over by the distributor whose ΔT send has not
        # fired yet — the D->Q queue depth bounded by supervision —
        # and their timer events, so crash() can cancel and orphan the
        # whole backlog at once.
        self._backlog = 0
        self._send_timers: dict[int, object] = {}
        self._udp_socks: dict[str, object] = {}      # src -> UdpSocket
        # src -> {msg_id: result}: the ids taken on a source's socket.
        self._udp_pending: dict[str, dict[int, QueryResult]] = {}
        self._udp_inflight: dict[tuple[str, int], _Inflight] = {}
        self._tcp_channels: dict[tuple[str, str], _TcpChannel] = {}
        # One QUIC client per emulated source: per-source sockets AND
        # per-source session-ticket state (a source's 0-RTT eligibility
        # must not leak to other sources).
        self._quic_clients: dict[str, QuicClient] = {}
        # src -> (connection, pending {msg_id: result})
        self._quic_conns: dict[str, tuple[object, dict]] = {}
        self._quic_timers: dict[tuple[str, int], object] = {}
        self._msg_seq = 0
        self._last_scheduled: float | None = None
        # Online invariant hook (repro.check.invariants): when the
        # engine runs with ReplayConfig(check=True) this points at the
        # InvariantChecker, which validates each message-id allocation.
        self.check = None

    # -- control plane ------------------------------------------------------

    def handle_sync(self, trace_t1: float) -> None:
        # First sync wins: with split input streams several controllers
        # broadcast; re-syncing would shift the timing baseline mid-run.
        if not self.timer.synchronized:
            self.timer.sync(trace_t1, self.host.scheduler.now)

    def handle_record(self, record: QueryRecord) -> None:
        """A record arrives from the distributor: schedule its send."""
        if self.crashed:
            self._orphans.append(record)
            return
        now = self.host.scheduler.now
        if not self.timer.synchronized:
            # Defensive: sync on first record if the broadcast was lost.
            self.timer.sync(record.time, now)
        delay = self.timer.delay_for(record.time, now)
        target = now + delay
        interval = (target - self._last_scheduled
                    if self._last_scheduled is not None else None)
        self._last_scheduled = target
        if delay <= 0.0:
            self._send(record, scheduled=now)
            return
        slop = self.sendpath.timer_slop(delay, interval=interval)
        self._backlog += 1
        self._send_timers[id(record)] = self.host.scheduler.after(
            max(0.0, delay + slop), self._send_later, record, target)

    def handle_record_fast(self, record: QueryRecord) -> None:
        """Fast mode: no timer events, send immediately (§2.6: 'disable
        time tracking and replay as fast as possible')."""
        if self.crashed:
            self._orphans.append(record)
            return
        self._send(record, scheduled=self.host.scheduler.now)

    def backlog_depth(self) -> int:
        """Records delivered by the distributor whose ΔT-scheduled
        send has not fired yet (the D->Q queue)."""
        return self._backlog

    # -- sending ------------------------------------------------------------------

    def _send_later(self, record: QueryRecord, scheduled: float) -> None:
        """A ΔT timer fired: leave the backlog, send."""
        self._backlog -= 1
        self._send_timers.pop(id(record), None)
        self._send(record, scheduled)

    def _send(self, record: QueryRecord, scheduled: float) -> None:
        if self.crashed:
            # A send scheduled before the crash: the record was never
            # on the wire, so it is re-dispatchable, not failed_over.
            self._orphans.append(record)
            return
        actual = self.sendpath.occupy(self.host.scheduler.now)
        if actual > self.host.scheduler.now:
            self.host.scheduler.at(actual, self._send_now, record,
                                   scheduled)
        else:
            self._send_now(record, scheduled)

    def _next_msg_id(self, taken) -> int:
        """Advance the id sequence, skipping ids still pending for the
        same destination socket/channel: a wrapped id colliding with an
        in-flight query would complete the wrong QueryResult."""
        for _ in range(0x10000):
            self._msg_seq = (self._msg_seq + 1) & 0xFFFF
            if self._msg_seq not in taken:
                return self._msg_seq
        raise RuntimeError(f"{self.name}: 65536 queries pending on one "
                           "socket; no free message id")

    def _taken_ids(self, record: QueryRecord):
        if record.proto == "udp":
            return self._udp_pending.get(record.src, ())
        if record.proto == "quic":
            entry = self._quic_conns.get(record.src)
            return entry[1].keys() if entry is not None else ()
        channel = self._tcp_channels.get((record.src, record.proto))
        return channel.pending.keys() if channel is not None else ()

    def _send_now(self, record: QueryRecord, scheduled: float) -> None:
        if self.crashed:
            self._orphans.append(record)
            return
        msg_id = self._next_msg_id(self._taken_ids(record))
        if self.check is not None:
            self.check.on_msg_id(self, record, msg_id)
        wire = self.wire.query(record, msg_id)
        now = self.host.scheduler.now
        result = QueryResult(record=record, send_time=now,
                             scheduled_time=scheduled)
        self.results.append(result)
        self.sent += 1
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.metrics.counter("replay.queries_sent").inc()
            obs.metrics.counter(f"replay.queries_{record.proto}").inc()
            # The §2.6 fidelity number: how late the send fired versus
            # its ΔT-scheduled time (timer slop + send-path occupancy).
            obs.metrics.histogram("replay.timing_error").record(
                now - scheduled)
            obs.tracer.emit("querier.send", scheduled, now,
                            detail=record.proto)
        if record.proto == "udp":
            self._send_udp(record, wire, msg_id, result)
        elif record.proto == "quic":
            self._send_quic(record, wire, msg_id, result)
        else:
            self._send_stream(record, wire, msg_id, result)

    # -- crash / failover (repro.replay.supervisor) -------------------------------

    def crash(self) -> None:
        """The querier process dies.

        Every query awaiting a response is marked ``failed_over`` (its
        answer, if any, is lost with the process); retry timers are
        cancelled so a dead querier never retransmits; stream and QUIC
        connections are abandoned.  Records that were routed here but
        not yet sent become orphans for the supervisor to re-dispatch —
        without supervision they simply strand, which is the pre-
        supervision behavior the regression tests pin."""
        if self.crashed:
            return
        self.crashed = True
        # ΔT timers for records not yet on the wire: cancel each and
        # orphan its record now, so the supervisor's one-shot drain at
        # detection time sees the whole backlog — waiting for the
        # timers to fire into the crashed guard would orphan them too
        # late to re-dispatch.
        for event in self._send_timers.values():
            event.cancel()
            self._orphans.append(event.args[0])
        self._send_timers.clear()
        self._backlog = 0
        for pending in self._udp_pending.values():
            for result in pending.values():
                self._fail_over_result(result)
        for inflight in self._udp_inflight.values():
            inflight.cancel()
        self._udp_pending.clear()
        self._udp_inflight.clear()
        for key, channel in list(self._tcp_channels.items()):
            for result in channel.pending.values():
                self._fail_over_result(result)
            for inflight in channel.inflight.values():
                inflight.cancel()
            channel.pending.clear()
            channel.inflight.clear()
            # Abandon, don't "recover": the process owning the socket
            # is gone.
            session = channel.session
            session.on_closed = None
            if session is not channel.conn:
                channel.conn.on_closed = None
            channel.conn.close()
        self._tcp_channels.clear()
        for src, (conn, pending) in list(self._quic_conns.items()):
            for msg_id, result in pending.items():
                self._cancel_quic_timer(src, msg_id)
                self._fail_over_result(result)
            pending.clear()
            conn.on_closed = None
        self._quic_conns.clear()

    def _fail_over_result(self, result: QueryResult) -> None:
        if result.response_time is not None:
            return
        result.failed_over = True
        self.failed_over += 1
        self._count("replay.failed_over")

    def take_orphans(self) -> list[QueryRecord]:
        """Drain the records stranded by a crash (for re-dispatch)."""
        orphans, self._orphans = self._orphans, []
        return orphans

    # -- resilience bookkeeping ---------------------------------------------------

    def _count(self, name: str) -> None:
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.metrics.counter(name).inc()

    def _timeout_result(self, result: QueryResult) -> None:
        """The retry policy is exhausted: account, never strand."""
        result.timed_out = True
        self.timeouts += 1
        self._count("replay.timeouts")

    def _note_recovered(self, result: QueryResult) -> None:
        if result.attempts > 1 or result.fell_back:
            self.recovered += 1
            self._count("replay.recovered")

    def _note_malformed(self) -> None:
        self.malformed += 1
        self._count("replay.malformed_responses")

    # -- UDP ---------------------------------------------------------------------------

    def _udp_socket_for(self, src: str):
        sock = self._udp_socks.get(src)
        if sock is None:
            sock = self.host.udp_socket()
            # Bind the original source identity into the callback so a
            # response is matched against the right source's queries.
            sock.on_datagram = (
                lambda payload, _addr, _port, src=src:
                self._on_udp_response(src, payload))
            self._udp_socks[src] = sock
        return sock

    def _send_udp(self, record: QueryRecord, wire: bytes, msg_id: int,
                  result: QueryResult) -> None:
        sock = self._udp_socket_for(record.src)
        key = (record.src, msg_id)
        pending = self._udp_pending.get(record.src)
        if pending is None:
            pending = self._udp_pending[record.src] = {}
        pending[msg_id] = result
        if self.resilience is not None:
            inflight = _Inflight(wire=wire)
            self._udp_inflight[key] = inflight
            inflight.timer = self.host.scheduler.after(
                self.resilience.wait_for(result.attempts),
                self._udp_timeout, key)
        sock.sendto(wire, self.server_addr, self.dns_port)

    def _udp_timeout(self, key: tuple[str, int]) -> None:
        src, msg_id = key
        pending = self._udp_pending.get(src, {})
        result = pending.get(msg_id)
        inflight = self._udp_inflight.get(key)
        if result is None or inflight is None:
            return
        if result.attempts <= self.resilience.max_retries:
            # Retransmit the same datagram — same message id, so a late
            # response to any attempt still matches (RFC 1035 §4.2.1).
            result.attempts += 1
            self.retransmits += 1
            self._count("replay.retransmits")
            inflight.timer = self.host.scheduler.after(
                self.resilience.wait_for(result.attempts),
                self._udp_timeout, key)
            self._udp_socket_for(src).sendto(
                inflight.wire, self.server_addr, self.dns_port)
            return
        del pending[msg_id]
        del self._udp_inflight[key]
        self._timeout_result(result)

    def _on_udp_response(self, src: str, payload: bytes) -> None:
        if self.crashed:
            return
        try:
            msg_id, flags, rcode, edns = self.wire.decode_response(payload)
        except WireError:
            self._note_malformed()
            return
        pending = self._udp_pending.get(src, {})
        result = pending.get(msg_id)
        if result is None or result.response_time is not None:
            return
        key = (src, msg_id)
        if (self.resilience is not None and self.resilience.tcp_fallback
                and flags & Flag.TC and not result.fell_back):
            self._fall_back_to_tcp(key, result)
            return
        del pending[msg_id]
        inflight = self._udp_inflight.pop(key, None)
        if inflight is not None:
            inflight.cancel()
        self._note_recovered(result)
        self._complete(result, rcode, edns, len(payload))

    def _fall_back_to_tcp(self, key: tuple[str, int],
                          result: QueryResult) -> None:
        """The UDP answer was truncated: retry this query over the
        source's TCP channel (RFC 7766), keeping the original
        send_time so the measured latency includes the fallback."""
        src, msg_id = key
        del self._udp_pending[src][msg_id]
        inflight = self._udp_inflight.pop(key, None)
        if inflight is not None:
            inflight.cancel()
        wire = inflight.wire if inflight is not None else None
        if wire is None:
            return
        result.fell_back = True
        self.tcp_fallbacks += 1
        self._count("replay.tcp_fallbacks")
        channel = self._channel_for(src, "tcp")
        if msg_id in channel.pending:
            # The id is busy on the TCP channel: re-id the query (the
            # id lives in the first two wire bytes).
            msg_id = self._next_msg_id(channel.pending.keys())
            if self.check is not None:
                self.check.on_msg_id(self, result.record.with_(
                    proto="tcp"), msg_id, scan=False)
            wire = msg_id.to_bytes(2, "big") + wire[2:]
        self._enqueue_stream(channel, "tcp", wire, msg_id, result)

    # -- TCP / TLS --------------------------------------------------------------------------

    def _channel_for(self, src: str, proto: str) -> _TcpChannel:
        key = (src, proto)
        channel = self._tcp_channels.get(key)
        if channel is not None and channel.conn.state in (
                "ESTABLISHED", "SYN_SENT", "SYN_RCVD"):
            return channel
        if channel is not None:
            self._reap_channel(key, channel)
        channel = self._open_channel(proto, key)
        self._tcp_channels[key] = channel
        return channel

    def _open_channel(self, proto: str, key: tuple) -> _TcpChannel:
        if proto == "tcp":
            conn = self.host.tcp_connect(self.server_addr, self.dns_port)
            conn.nagle = self.nagle
            channel = _TcpChannel(conn=conn, session=conn,
                                  framer=None, key=key, established=True)
            channel.framer = LengthPrefixFramer(
                lambda wire, ch=channel: self._on_stream_response(ch, wire))
            conn.on_data = channel.framer.feed
            conn.on_closed = lambda: self._on_channel_closed(key)
            return channel
        conn = self.host.tcp_connect(self.server_addr, self.tls_port)
        conn.nagle = self.nagle
        tls = TlsConnection.client(conn)
        channel = _TcpChannel(conn=conn, session=tls, framer=None,
                              key=key, established=False)
        channel.framer = LengthPrefixFramer(
            lambda wire, ch=channel: self._on_stream_response(ch, wire))
        tls.on_data = channel.framer.feed
        tls.on_established = lambda: self._flush_tls(channel)
        tls.on_closed = lambda: self._on_channel_closed(key)
        return channel

    def _flush_tls(self, channel: _TcpChannel) -> None:
        channel.established = True
        for framed in channel.backlog:
            channel.session.send(framed)
        channel.backlog.clear()

    def _send_stream(self, record: QueryRecord, wire: bytes, msg_id: int,
                     result: QueryResult) -> None:
        channel = self._channel_for(record.src, record.proto)
        self._enqueue_stream(channel, record.proto, wire, msg_id, result)

    def _enqueue_stream(self, channel: _TcpChannel, proto: str,
                        wire: bytes, msg_id: int,
                        result: QueryResult) -> None:
        channel.pending[msg_id] = result
        framed = frame_message(wire)
        if self.resilience is not None:
            inflight = _Inflight(wire=framed)
            channel.inflight[msg_id] = inflight
            # The timer resolves the channel by key when it fires: a
            # reconnect may have moved this query to a fresh channel.
            inflight.timer = self.host.scheduler.after(
                self.resilience.wait_for(result.attempts),
                self._stream_timeout, channel.key, msg_id)
        if proto == "tls" and not channel.established:
            channel.backlog.append(framed)
        else:
            channel.session.send(framed)

    def _stream_timeout(self, key: tuple, msg_id: int) -> None:
        channel = self._tcp_channels.get(key)
        if channel is None:
            return
        result = channel.pending.pop(msg_id, None)
        if result is None:
            return
        inflight = channel.inflight.pop(msg_id, None)
        if inflight is not None:
            inflight.cancel()
        self._timeout_result(result)
        if channel.conn.state != "ESTABLISHED":
            # Connect timeout: the handshake is wedged (the fabric's
            # TCP has no segment retransmission), so abandon the
            # connection; its close triggers the reconnect path for
            # whatever else is pending on the channel.
            channel.conn.close()

    def _on_stream_response(self, channel: _TcpChannel,
                            wire: bytes) -> None:
        if self.crashed:
            return
        try:
            msg_id, _flags, rcode, edns = self.wire.decode_response(wire)
        except WireError:
            self._note_malformed()
            return
        result = channel.pending.pop(msg_id, None)
        if result is not None:
            inflight = channel.inflight.pop(msg_id, None)
            if inflight is not None:
                inflight.cancel()
            self._note_recovered(result)
            self._complete(result, rcode, edns, len(wire))

    def _on_channel_closed(self, key: tuple) -> None:
        channel = self._tcp_channels.pop(key, None)
        if channel is None:
            return
        if self.resilience is not None and channel.pending:
            self._recover_channel(key, channel)
        else:
            self.unanswered_at_close += len(channel.pending)

    def _recover_channel(self, key: tuple, channel: _TcpChannel) -> None:
        """The channel died with queries outstanding: re-send each of
        them once on a fresh channel; queries that already spent their
        reconnect are accounted as timed out."""
        fresh: _TcpChannel | None = None
        for msg_id, result in list(channel.pending.items()):
            inflight = channel.inflight.pop(msg_id, None)
            if (not self.resilience.reconnect or inflight is None
                    or inflight.resent):
                if inflight is not None:
                    inflight.cancel()
                self._timeout_result(result)
                continue
            if fresh is None:
                fresh = self._channel_for(*key)
            inflight.resent = True
            result.attempts += 1
            self.reconnects += 1
            self._count("replay.reconnects")
            fresh.pending[msg_id] = result
            fresh.inflight[msg_id] = inflight
            # Restart the per-query clock for the fresh attempt.
            inflight.cancel()
            inflight.timer = self.host.scheduler.after(
                self.resilience.wait_for(result.attempts),
                self._stream_timeout, key, msg_id)
            if key[1] == "tls" and not fresh.established:
                fresh.backlog.append(inflight.wire)
            else:
                fresh.session.send(inflight.wire)
        channel.pending.clear()

    def _reap_channel(self, key: tuple, channel: _TcpChannel) -> None:
        self._tcp_channels.pop(key, None)
        if self.resilience is not None:
            for msg_id, result in channel.pending.items():
                inflight = channel.inflight.pop(msg_id, None)
                if inflight is not None:
                    inflight.cancel()
                self._timeout_result(result)
            channel.pending.clear()
        else:
            self.unanswered_at_close += len(channel.pending)

    # -- QUIC ------------------------------------------------------------------------------

    def _send_quic(self, record: QueryRecord, wire: bytes, msg_id: int,
                   result: QueryResult) -> None:
        client = self._quic_clients.get(record.src)
        if client is None:
            client = QuicClient(self.host)
            self._quic_clients[record.src] = client
        framed = frame_message(wire)
        entry = self._quic_conns.get(record.src)
        if entry is not None and not entry[0].closed:
            conn, pending = entry
            pending[msg_id] = result
            self._arm_quic_timer(record.src, msg_id)
            conn.send_stream(conn.open_stream(), framed)
            return
        pending = {msg_id: result}
        # Reconnect: with a session ticket the request rides 0-RTT in
        # the Initial; the source's first connection pays the handshake.
        conn = client.connect(self.server_addr, self.quic_port,
                              zero_rtt_payloads=[framed])
        conn.on_stream_data = (
            lambda stream_id, data, p=pending, s=record.src:
            self._on_quic_response(s, p, data))
        conn.on_closed = lambda src=record.src: self._reap_quic(src)
        self._quic_conns[record.src] = (conn, pending)
        self._arm_quic_timer(record.src, msg_id)

    def _arm_quic_timer(self, src: str, msg_id: int) -> None:
        if self.resilience is None:
            return
        self._quic_timers[(src, msg_id)] = self.host.scheduler.after(
            self.resilience.wait_for(1), self._quic_timeout, src, msg_id)

    def _cancel_quic_timer(self, src: str, msg_id: int) -> None:
        timer = self._quic_timers.pop((src, msg_id), None)
        if timer is not None:
            timer.cancel()

    def _quic_timeout(self, src: str, msg_id: int) -> None:
        self._quic_timers.pop((src, msg_id), None)
        entry = self._quic_conns.get(src)
        if entry is None:
            return
        result = entry[1].pop(msg_id, None)
        if result is not None and result.response_time is None:
            self._timeout_result(result)

    def _on_quic_response(self, src: str, pending: dict,
                          framed: bytes) -> None:
        framer = LengthPrefixFramer(
            lambda wire: self._match_quic(src, pending, wire))
        framer.feed(framed)

    def _match_quic(self, src: str, pending: dict, wire: bytes) -> None:
        if self.crashed:
            return
        try:
            msg_id, _flags, rcode, edns = self.wire.decode_response(wire)
        except WireError:
            self._note_malformed()
            return
        result = pending.pop(msg_id, None)
        if result is not None:
            self._cancel_quic_timer(src, msg_id)
            self._complete(result, rcode, edns, len(wire))

    def _reap_quic(self, src: str) -> None:
        entry = self._quic_conns.pop(src, None)
        if entry is None:
            return
        if self.resilience is not None:
            for msg_id, result in entry[1].items():
                self._cancel_quic_timer(src, msg_id)
                self._timeout_result(result)
            entry[1].clear()
        else:
            self.unanswered_at_close += len(entry[1])

    # -- completion ------------------------------------------------------------------------------

    def _complete(self, result: QueryResult, rcode: int, edns,
                  size: int) -> None:
        result.response_time = self.host.scheduler.now
        result.response_size = size
        result.rcode = rcode
        self.wire.learn(result.record.src, edns)
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.metrics.counter("replay.responses").inc()
            obs.metrics.histogram("replay.latency").record(
                result.response_time - result.send_time)
            obs.tracer.emit("querier.response", result.send_time,
                            result.response_time,
                            detail=result.record.proto)

    # -- checkpointing (repro.replay.supervisor) -------------------------------------------------

    _STATE_COUNTERS = ("sent", "unanswered_at_close", "timeouts",
                       "retransmits", "tcp_fallbacks", "reconnects",
                       "recovered", "malformed", "failed_over")

    def state_dict(self) -> dict:
        """Checkpointable state: message-id sequence, timing baseline,
        accounting counters, completed results, and the parked ΔT
        backlog (records waiting on their send timers, serialized in
        arrival order).  Only captured at a quiescent instant (nothing
        on the wire, no open stream/QUIC state), which the supervisor's
        checkpointer enforces."""
        from repro.trace.binaryform import encode_record
        return {
            "name": self.name,
            "crashed": self.crashed,
            "msg_seq": self._msg_seq,
            "timer": {"trace_t1": self.timer.trace_t1,
                      "real_t1": self.timer.real_t1},
            "last_scheduled": self._last_scheduled,
            "backlog": [encode_record(event.args[0]).hex()
                        for event in self._send_timers.values()],
            "counters": {key: getattr(self, key)
                         for key in self._STATE_COUNTERS},
            "results": [_result_to_dict(r) for r in self.results],
        }

    def load_state(self, state: dict) -> None:
        from repro.trace.binaryform import decode_record
        self.crashed = state.get("crashed", False)
        self._msg_seq = state["msg_seq"]
        timer = state["timer"]
        if timer["trace_t1"] is not None:
            self.timer.sync(timer["trace_t1"], timer["real_t1"])
        # Re-ingest the parked backlog: with the timing baseline
        # restored, handle_record recomputes each record's absolute ΔT
        # target, so the resumed run sends at the original instants.
        for wire in state.get("backlog", ()):
            self.handle_record(decode_record(bytes.fromhex(wire)))
        self._last_scheduled = state["last_scheduled"]
        for key, value in state["counters"].items():
            setattr(self, key, value)
        self.results = [_result_from_dict(r) for r in state["results"]]

    # -- stats -----------------------------------------------------------------------------------

    def latencies(self) -> list[float]:
        return [r.latency for r in self.results if r.latency is not None]

    def answered_fraction(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.answered) \
            / len(self.results)

    def pending_count(self) -> int:
        """Queries currently awaiting a response across every
        transport — zero after a drained resilient run (nothing may
        strand)."""
        return (sum(len(pending) for pending in self._udp_pending.values())
                + sum(len(ch.pending)
                      for ch in self._tcp_channels.values())
                + sum(len(entry[1])
                      for entry in self._quic_conns.values()))
