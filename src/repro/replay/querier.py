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

The query lifecycle itself — message ids, the pending table, matching,
the resilience policy and its accounting — is :class:`QueryCore`, one
state machine with no I/O that both backends drive: :class:`Querier`
here over the simulated fabric, and
:class:`~repro.replay.backends.live.LiveQuerier` over asyncio sockets.

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
from repro.util.codec import DictCodec

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
class QueryResult(DictCodec):
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


# The accounting every querier keeps: checkpointed, and checked
# non-negative by repro.check.invariants.
COUNTERS = ("sent", "unanswered_at_close", "timeouts", "retransmits",
            "tcp_fallbacks", "reconnects", "recovered", "malformed",
            "failed_over")


class Pending:
    """One query awaiting its response on a channel."""

    __slots__ = ("result", "key", "proto", "msg_id", "wire", "timer",
                 "resent")

    def __init__(self, result: QueryResult, key, proto: str, msg_id: int,
                 wire: bytes):
        self.result = result
        self.key = key              # the channel it is pending on
        self.proto = proto          # that channel's transport
        self.msg_id = msg_id
        self.wire = wire            # unframed query, kept for re-sends
        self.timer = None           # armed wait (a handle with cancel())
        self.resent = False         # stream reconnect-resend spent


class QueryCore:
    """The query lifecycle both backends' queriers share, with no I/O.

    It allocates message ids, tracks every query awaiting a response in
    one table, ``pending = {channel key: {msg_id: Pending}}``, matches
    each response to its query on the channel it arrived on, and runs
    the resilience policy: UDP retransmission with backoff, TC-bit
    fallback to TCP, one reconnect-and-resend when a stream dies, and
    the timeout / stranded / failed-over accounting.  A driver subclass
    supplies the transport: the sim :class:`Querier` and the live
    :class:`~repro.replay.backends.live.LiveQuerier` (the sans-I/O
    split ZDNS makes between lookup logic and its I/O layer).

    Events in, called by the driver: :meth:`start` (send a record),
    :meth:`on_response`, :meth:`on_timer`, :meth:`channel_lost` and
    :meth:`crash`.  The driver sets ``clock``, an object with ``now``
    and ``obs`` (the observer or None) — the sim scheduler is one — and
    implements the actions: ``_channel(src, proto)`` (the channel now
    serving that source and transport, or None), ``_open(src, proto)``
    (that channel, opened if need be; the key may be any hashable object),
    ``_transmit(key, wire)``, ``_arm(delay, pending)`` (a timer that
    calls :meth:`on_timer`, returned as a handle with ``cancel()``),
    ``_stalled(key)`` (a stream query on *key* timed out) and
    ``_settled()`` (a query left the table for good).
    """

    # Without a resilience policy, how long a query may wait before it
    # is stranded; None waits until its channel closes.
    strand_after: float | None = None

    def __init__(self, name: str, resilience: ResilienceConfig | None,
                 wire: ClientWire):
        self.name = name
        self.resilience = resilience
        self.wire = wire
        self.results: list[QueryResult] = []
        for counter in COUNTERS:
            setattr(self, counter, 0)
        self.crashed = False
        self.pending: dict[object, dict[int, Pending]] = {}
        self._msg_seq = 0
        # Online invariant hook (repro.check.invariants): with
        # ReplayConfig(check=True) this points at the InvariantChecker,
        # which validates each message-id allocation.
        self.check = None

    # -- events -------------------------------------------------------------

    def start(self, record: QueryRecord, scheduled: float) -> None:
        """Send *record*'s query and track it until it settles."""
        key = self._open(record.src, record.proto)
        msg_id = self._next_msg_id(self.pending.get(key, ()))
        if self.check is not None:
            self.check.on_msg_id(self, record, msg_id)
        wire = self.wire.query(record, msg_id)
        clock = self.clock
        now = clock.now
        result = QueryResult(record=record, send_time=now,
                             scheduled_time=scheduled)
        self.results.append(result)
        self.sent += 1
        obs = clock.obs
        if obs is not None:
            obs.metrics.counter("replay.queries_sent").inc()
            obs.metrics.counter(f"replay.queries_{record.proto}").inc()
            # The §2.6 fidelity number: how late the send fired versus
            # its ΔT-scheduled time (timer slop + send-path occupancy).
            obs.metrics.histogram("replay.timing_error").record(
                now - scheduled)
            obs.tracer.emit("querier.send", scheduled, now,
                            detail=record.proto)
        self._launch(Pending(result, key, record.proto, msg_id, wire))

    def on_response(self, key, payload: bytes) -> None:
        """*payload* arrived on channel *key*: complete the query
        pending there under its message id.  An answer for a query that
        has left the channel (a late UDP datagram after TC fallback)
        matches nothing."""
        if self.crashed:
            return
        try:
            msg_id, flags, rcode, edns = self.wire.decode_response(payload)
        except WireError:
            self.malformed += 1
            self._count("replay.malformed_responses")
            return
        table = self.pending.get(key)
        p = table.get(msg_id) if table is not None else None
        if p is None:
            return
        result = p.result
        policy = self.resilience
        if (policy is not None and policy.tcp_fallback
                and p.proto == "udp" and flags & Flag.TC):
            self._fall_back(p)
            return
        del table[msg_id]
        if p.timer is not None:
            p.timer.cancel()
        if result.attempts > 1 or result.fell_back:
            self.recovered += 1
            self._count("replay.recovered")
        clock = self.clock
        result.response_time = now = clock.now
        result.response_size = len(payload)
        result.rcode = rcode
        self.wire.learn(result.record.src, edns)
        obs = clock.obs
        if obs is not None:
            obs.metrics.counter("replay.responses").inc()
            obs.metrics.histogram("replay.latency").record(
                now - result.send_time)
            obs.tracer.emit("querier.response", result.send_time, now,
                            detail=result.record.proto)
        self._settled()

    def on_timer(self, p: Pending) -> None:
        """*p*'s wait ran out: retransmit a UDP query while the policy
        allows, else give up on it."""
        p.timer = None
        result = p.result
        policy = self.resilience
        if (p.proto == "udp" and policy is not None
                and result.attempts <= policy.max_retries):
            # The same datagram under the same message id, so a late
            # response to any attempt still matches (RFC 1035 §4.2.1).
            result.attempts += 1
            self.retransmits += 1
            self._count("replay.retransmits")
            p.timer = self._arm(policy.wait_for(result.attempts), p)
            self._transmit(p.key, p.wire)
            return
        del self.pending[p.key][p.msg_id]
        self._give_up(result)
        if p.proto != "udp":
            self._stalled(p.key)

    def channel_lost(self, key, resend: bool) -> None:
        """Channel *key* is gone.  With *resend* (the peer closed a
        stream) and a reconnecting policy, each query pending on it is
        re-sent once on a fresh channel; the rest give up."""
        table = self.pending.pop(key, None)
        if not table:
            return
        policy = self.resilience
        fresh = None
        for p in table.values():
            if p.timer is not None:
                p.timer.cancel()
            if (not resend or policy is None or not policy.reconnect
                    or p.resent):
                self._give_up(p.result)
                continue
            if fresh is None:
                fresh = self._open(p.result.record.src, p.proto)
            p.resent = True
            p.result.attempts += 1
            self.reconnects += 1
            self._count("replay.reconnects")
            p.key = fresh
            self._launch(p)

    def crash(self) -> None:
        """The querier process dies: every query awaiting a response is
        marked ``failed_over`` (its answer is lost with the process) and
        its timer cancelled, so a dead querier never retransmits."""
        self.crashed = True
        for table in self.pending.values():
            for p in table.values():
                if p.timer is not None:
                    p.timer.cancel()
                p.result.failed_over = True
                self.failed_over += 1
                self._count("replay.failed_over")
                self._settled()
        self.pending.clear()

    # -- lifecycle ------------------------------------------------------------

    def _launch(self, p: Pending) -> None:
        """Track *p* on its channel, arm its wait, then transmit (in that
        order: the sim breaks timestamp ties by insertion)."""
        table = self.pending.get(p.key)
        if table is None:
            table = self.pending[p.key] = {}
        table[p.msg_id] = p
        policy = self.resilience
        wait = (policy.wait_for(p.result.attempts) if policy is not None
                else self.strand_after)
        if wait is not None:
            p.timer = self._arm(wait, p)
        self._transmit(p.key, p.wire)

    def _fall_back(self, p: Pending) -> None:
        """The UDP answer was truncated: retry the query over its
        source's TCP channel (RFC 7766), keeping the original send_time
        so the measured latency includes the fallback."""
        del self.pending[p.key][p.msg_id]
        if p.timer is not None:
            p.timer.cancel()
        result = p.result
        result.fell_back = True
        self.tcp_fallbacks += 1
        self._count("replay.tcp_fallbacks")
        p.key, p.proto = self._open(result.record.src, "tcp"), "tcp"
        taken = self.pending.get(p.key, ())
        if p.msg_id in taken:
            # The id is busy on the TCP channel: re-id the query (the
            # id lives in the first two wire bytes).
            p.msg_id = self._next_msg_id(taken)
            if self.check is not None:
                self.check.on_msg_id(self, result.record.with_(
                    proto="tcp"), p.msg_id, scan=False)
            p.wire = p.msg_id.to_bytes(2, "big") + p.wire[2:]
        self._launch(p)

    def _give_up(self, result: QueryResult) -> None:
        """No answer will come: a timeout once a resilience policy is
        exhausted, else stranded (accounted unanswered-at-close)."""
        if self.resilience is not None:
            result.timed_out = True
            self.timeouts += 1
            self._count("replay.timeouts")
        else:
            self.unanswered_at_close += 1
        self._settled()

    def _next_msg_id(self, taken) -> int:
        """Advance the id sequence, skipping ids still pending on the
        destination channel: a wrapped id colliding with an in-flight
        query would complete the wrong QueryResult."""
        for _ in range(0x10000):
            self._msg_seq = (self._msg_seq + 1) & 0xFFFF
            if self._msg_seq not in taken:
                return self._msg_seq
        raise RuntimeError(f"{self.name}: 65536 queries pending on one "
                           "channel; no free message id")

    def _taken_ids(self, record: QueryRecord):
        """The ids pending on the channel now serving *record*."""
        return self.pending.get(self._channel(record.src, record.proto),
                                ())

    def _count(self, name: str) -> None:
        obs = self.clock.obs
        if obs is not None:
            obs.metrics.counter(name).inc()

    def _stalled(self, key) -> None:
        pass

    def _settled(self) -> None:
        pass

    # -- stats ----------------------------------------------------------------

    def pending_count(self) -> int:
        """Queries currently awaiting a response on any channel — zero
        after a drained resilient run (nothing may strand)."""
        return sum(len(table) for table in self.pending.values())

    def backlog_depth(self) -> int:
        """Records accepted but not yet sent (the sim's ΔT backlog)."""
        return 0

    def latencies(self) -> list[float]:
        return [r.latency for r in self.results if r.latency is not None]

    def answered_fraction(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.answered) \
            / len(self.results)


@dataclass(eq=False)
class _Channel:
    """One per-source TCP, TLS or QUIC connection (a core channel key;
    a source's UDP channel is its socket)."""

    src: str
    proto: str
    conn: object = None                  # TcpConnection / QuicConnection
    session: object = None               # TcpConnection or TlsConnection
    established: bool = True             # False while TLS handshakes
    backlog: list[bytes] = field(default_factory=list)


class Querier(QueryCore):
    """One querier process on a client-instance host: the sim driver
    of :class:`QueryCore` (ΔT scheduling, send-path occupancy, the
    supervision backlog and netsim sockets)."""

    def __init__(self, host: Host, server_addr: str, name: str = "",
                 config: QuerierConfig | None = None,
                 query_wires: dict[tuple, bytes] | None = None):
        self.config = config = config or QuerierConfig()
        super().__init__(name or f"querier@{host.name}", config.resilience,
                         ClientWire(config.cookies, query_wires))
        self.host = host
        self.clock = host.scheduler
        self.server_addr = server_addr
        self.dns_port = config.dns_port
        self.tls_port = config.tls_port
        self.quic_port = config.quic_port
        self.nagle = config.nagle
        self.timer = ReplayTimer()
        self.sendpath = (SendPathModel(seed=config.jitter_seed)
                         if config.jitter_seed is not None
                         else host.sendpath)
        # Supervision state (repro.replay.supervisor): orphans are
        # records routed here after (or scheduled before) a crash,
        # awaiting re-dispatch.
        self._orphans: list[QueryRecord] = []
        # Records handed over by the distributor whose ΔT send has not
        # fired yet — the D->Q queue depth bounded by supervision —
        # and their timer events, so crash() can cancel and orphan the
        # whole backlog at once.
        self._backlog = 0
        self._send_timers: dict[int, object] = {}
        self._udp_socks: dict[str, object] = {}      # src -> UdpSocket
        self._tcp_channels: dict[tuple[str, str], _Channel] = {}
        # One QUIC client per emulated source: per-source sockets AND
        # per-source session-ticket state (a source's 0-RTT eligibility
        # must not leak to other sources).
        self._quic_clients: dict[str, QuicClient] = {}
        self._quic_conns: dict[str, _Channel] = {}
        self._last_scheduled: float | None = None

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

    def quiescent(self, horizon: float) -> bool:
        """Nothing pending, orphaned or connected (open stream and
        QUIC state cannot be checkpointed), and no parked ΔT send due
        before *horizon*."""
        return not (self.pending_count() or self._orphans
                    or self._tcp_channels or self._quic_conns
                    or any(event.time < horizon
                           for event in self._send_timers.values()))

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
            self.start(record, scheduled)

    def _send_now(self, record: QueryRecord, scheduled: float) -> None:
        if self.crashed:
            self._orphans.append(record)
            return
        self.start(record, scheduled)

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
        super().crash()
        for channel in self._tcp_channels.values():
            # Abandon, don't "recover": the process owning the socket
            # is gone.
            channel.session.on_closed = channel.conn.on_closed = None
            channel.conn.close()
        self._tcp_channels.clear()
        for channel in self._quic_conns.values():
            if channel.conn is not None:
                channel.conn.on_closed = None
        self._quic_conns.clear()

    def take_orphans(self) -> list[QueryRecord]:
        """Drain the records stranded by a crash (for re-dispatch)."""
        orphans, self._orphans = self._orphans, []
        return orphans

    # -- transport (the QueryCore driver surface) -------------------------

    def _arm(self, delay: float, p: Pending):
        return self.host.scheduler.after(delay, self.on_timer, p)

    def _channel(self, src: str, proto: str):
        if proto == "udp":
            return self._udp_socks.get(src)
        if proto == "quic":
            return self._quic_conns.get(src)
        return self._tcp_channels.get((src, proto))

    def _open(self, src: str, proto: str):
        if proto == "udp":
            sock = self._udp_socks.get(src)
            if sock is None:
                sock = self._udp_socks[src] = self.host.udp_socket()
                sock.on_datagram = (
                    lambda payload, _addr, _port, sock=sock:
                    self.on_response(sock, payload))
            return sock
        if proto == "quic":
            channel = self._quic_conns.get(src)
            if channel is None:
                # Connects on its first transmit (see _send_quic).
                channel = self._quic_conns[src] = _Channel(src, proto)
            return channel
        key = (src, proto)
        channel = self._tcp_channels.get(key)
        if channel is not None and channel.conn.state in (
                "ESTABLISHED", "SYN_SENT", "SYN_RCVD"):
            return channel
        if channel is not None:
            del self._tcp_channels[key]
            self.channel_lost(channel, resend=False)
        channel = self._tcp_channels[key] = self._connect(src, proto)
        return channel

    def _connect(self, src: str, proto: str) -> _Channel:
        tls = proto == "tls"
        conn = self.host.tcp_connect(
            self.server_addr, self.tls_port if tls else self.dns_port)
        conn.nagle = self.nagle
        channel = _Channel(src, proto, conn,
                           TlsConnection.client(conn) if tls else conn,
                           established=not tls)
        session = channel.session
        session.on_data = LengthPrefixFramer(
            lambda wire: self.on_response(channel, wire)).feed
        if tls:
            session.on_established = lambda: self._flush_tls(channel)
        session.on_closed = lambda: self._on_channel_closed((src, proto))
        return channel

    def _flush_tls(self, channel: _Channel) -> None:
        channel.established = True
        for framed in channel.backlog:
            channel.session.send(framed)
        channel.backlog.clear()

    def _transmit(self, key, wire: bytes) -> None:
        if key.__class__ is not _Channel:        # a source's UDP socket
            key.sendto(wire, self.server_addr, self.dns_port)
        elif key.proto == "quic":
            self._send_quic(key, frame_message(wire))
        elif key.established:
            key.session.send(frame_message(wire))
        else:
            key.backlog.append(frame_message(wire))

    def _send_quic(self, channel: _Channel, framed: bytes) -> None:
        if channel.conn is not None:
            channel.conn.send_stream(channel.conn.open_stream(), framed)
            return
        client = self._quic_clients.get(channel.src)
        if client is None:
            client = self._quic_clients[channel.src] = QuicClient(self.host)
        # Reconnect: with a session ticket the request rides 0-RTT in
        # the Initial; the source's first connection pays the handshake.
        conn = channel.conn = client.connect(
            self.server_addr, self.quic_port, zero_rtt_payloads=[framed])
        conn.on_stream_data = lambda _stream, data: LengthPrefixFramer(
            lambda wire: self.on_response(channel, wire)).feed(data)
        conn.on_closed = lambda: self._on_quic_closed(channel.src)

    def _on_channel_closed(self, key: tuple[str, str]) -> None:
        channel = self._tcp_channels.pop(key, None)
        if channel is not None:
            self.channel_lost(channel, resend=True)

    def _on_quic_closed(self, src: str) -> None:
        channel = self._quic_conns.pop(src, None)
        if channel is not None:
            self.channel_lost(channel, resend=False)

    def _stalled(self, key) -> None:
        # Connect timeout: the handshake is wedged (the fabric's TCP has
        # no segment retransmission), so abandon the connection; its
        # close triggers the reconnect path for whatever else is
        # pending on the channel.
        if key.proto != "quic" and key.conn.state != "ESTABLISHED":
            key.conn.close()

    # -- checkpointing (repro.replay.supervisor) -------------------------------------------------

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
            "counters": {key: getattr(self, key) for key in COUNTERS},
            "results": [r.to_dict() for r in self.results],
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
        self.results = [QueryResult.from_dict(r)
                        for r in state["results"]]
