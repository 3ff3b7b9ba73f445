"""The transport-independent DNS answering core.

:class:`DnsResponder` owns everything about turning a wire-format query
into a wire-format response — views, zone lookup, response-building
rules, the precompiled-answer cache, and the query log — and nothing
about how queries arrive.  Both replay backends serve the same
responder:

* the simulated :class:`~repro.server.authoritative.AuthoritativeServer`
  subclasses it and binds it to a :class:`~repro.netsim.host.Host`'s
  simulated UDP/TCP/TLS/QUIC endpoints;
* the live backend (:mod:`repro.replay.backends.live`) serves it behind
  real ``asyncio`` datagram/stream endpoints on loopback sockets.

Because the answering logic is defined once, the two backends cannot
drift: a cache-eligible query produces the same bytes whether it
arrived through the event-driven fabric or a kernel socket.

The ``clock``/``observer`` hooks default to inert (time 0, no metrics);
each backend supplies its own notion of "now" and its own observer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.dns.constants import Flag, Opcode, Rcode, RRClass
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.wire import WireError
from repro.dns.zone import LookupStatus, Zone
from repro.server.answercache import AnswerCache, CachedAnswer
from repro.server.overload import (OverloadConfig, ResponseRateLimiter,
                                   ServerCookies, minimal_response,
                                   response_key)
from repro.server.views import ViewSelector, catch_all_view


@dataclass
class QueryLogEntry:
    time: float
    qname: Name
    qtype: int
    src: str
    sport: int
    proto: str
    rcode: int
    response_size: int
    qclass: int = RRClass.IN


class DnsResponder:
    """Query -> response logic for one authoritative identity."""

    def __init__(self, zones: list[Zone] | None = None,
                 views: ViewSelector | None = None,
                 udp_payload_limit: int = 4096,
                 log_queries: bool = False,
                 answer_cache: bool = True,
                 answer_cache_size: int = 100_000,
                 clock: Callable[[], float] | None = None,
                 observer=None,
                 overload: OverloadConfig | None = None):
        if views is None:
            views = ViewSelector([catch_all_view(list(zones or []))])
        elif zones:
            raise ValueError("pass either zones or views, not both")
        self.views = views
        # Precompiled wire-format answers (the NSD analogue, §5.2.1):
        # identical queries skip parse/lookup/encode and get the stored
        # response bytes with only the 2-byte message id patched.
        self.answer_cache = (AnswerCache(views, answer_cache_size)
                             if answer_cache else None)
        self.udp_payload_limit = udp_payload_limit
        self.log_queries = log_queries
        self.query_log: list[QueryLogEntry] = []
        self.queries_handled = 0
        self.refused = 0
        self._clock = clock
        self._observer = observer
        # Overload control (docs/RESILIENCE.md): everything below is
        # inert when *overload* is None — the default posture.
        self.overload = overload
        self._rrl: ResponseRateLimiter | None = None
        self._cookie_jar: ServerCookies | None = None
        self.admission_queue: deque | None = None
        if overload is not None:
            overload.validate()
            if overload.rrl is not None:
                scale = (overload.cookies.nocookie_scale
                         if overload.cookies is not None else 1.0)
                self._rrl = ResponseRateLimiter(overload.rrl, scale)
            if overload.cookies is not None:
                self._cookie_jar = ServerCookies(overload.cookies)
            if overload.admission is not None:
                self.admission_queue = deque()
        self.responses_sent = 0
        self.rrl_dropped = 0
        self.rrl_slipped = 0
        self.cookies_validated = 0
        self.admission_received = 0
        self.admission_processed = 0
        self.admission_shed = 0
        self.admission_refused = 0

    # -- backend hooks ----------------------------------------------------

    def _now(self) -> float:
        """Current time for query-log stamps and trace spans; the
        simulated server overrides this with the scheduler clock."""
        return self._clock() if self._clock is not None else 0.0

    def _obs(self):
        """The attached observer, if any; the simulated server
        overrides this to reach the scheduler's run-wide observer."""
        return self._observer

    # -- query processing -------------------------------------------------

    def reply_wire(self, proto: str, wire: bytes, src: str,
                   sport: int) -> bytes | None:
        """Wire-format response for a wire-format query, via the
        precompiled-answer cache when possible.  Returns the bytes to
        send (UDP entries are size-limited/truncated, stream entries
        full-size), or None when no response is due."""
        stream = proto != "udp"
        cache = self.answer_cache
        if cache is not None:
            entry = cache.get(src, stream, wire)
            if entry is not None:
                return self._replay_cached(entry, wire, src, sport,
                                           proto)
        result = self._respond(wire, src, sport, proto)
        if result is None:
            return None
        response, query, zone, view_selected = result
        verified = False
        if self._cookie_jar is not None:
            # Validate + attach the cookie echo before encoding: the
            # echoed option is part of the cached response bytes.
            verified = self._cookie_jar.process(query, response, src)
            if verified:
                self.cookies_validated += 1
                self._count("server.cookies_validated")
        full = response.to_wire()
        out = full
        if not stream:
            if query.edns is not None:
                limit = min(self.udp_payload_limit,
                            max(512, query.edns.payload))
            else:
                limit = 512
            if len(full) > limit:
                out = response.to_wire(max_size=limit)
        decision = self._rrl_gate(src, response.rcode,
                                  query.question.qname,
                                  query.question.qtype, zone, verified,
                                  stream)
        if self.log_queries:
            self.query_log.append(QueryLogEntry(
                time=self._now(), qname=query.question.qname,
                qtype=query.question.qtype, src=src, sport=sport,
                proto=proto, rcode=response.rcode,
                response_size=0 if decision == "drop" else len(full),
                qclass=query.question.qclass))
        if cache is not None and query.opcode == Opcode.QUERY:
            # Cached regardless of the RRL outcome: the cache stores
            # the *answer*, and RRL re-decides on every hit.
            cache.put(src, stream, wire, CachedAnswer(
                body=out[2:], rcode=response.rcode, full_size=len(full),
                qname=query.question.qname, qtype=query.question.qtype,
                view_selected=view_selected, refused=zone is None,
                zone=zone,
                zone_version=zone.version if zone is not None else 0,
                cookie_verified=verified,
                qclass=query.question.qclass))
        return self._finish(decision, wire, response.rcode, out)

    # Internal transports predate the public name; both spellings stay
    # bound to the same method.
    _reply_wire = reply_wire

    def _replay_cached(self, entry: CachedAnswer, wire: bytes, src: str,
                       sport: int, proto: str) -> bytes | None:
        """Replay the bookkeeping of a full answer path, then return
        the stored bytes with the query's message id patched in.  A
        cache hit still charges the rate limiter: the cookie option is
        part of the cache key bytes, so the stored ``cookie_verified``
        is exactly what re-validation would conclude."""
        self.queries_handled += 1
        if entry.refused:
            self.refused += 1
        if entry.cookie_verified:
            self.cookies_validated += 1
            self._count("server.cookies_validated")
        obs = self._obs()
        if obs is not None:
            now = self._now()
            metrics = obs.metrics
            metrics.counter("server.answer_cache_hits",
                            volatile=True).inc()
            metrics.counter("server.queries").inc()
            metrics.counter(f"server.queries_{proto}").inc()
            metrics.counter("server.view_selections"
                            if entry.view_selected
                            else "server.view_misses").inc()
            if entry.refused:
                metrics.counter("server.refused").inc()
            obs.tracer.emit("server.handle", now, now, detail=proto)
        decision = self._rrl_gate(src, entry.rcode, entry.qname,
                                  entry.qtype, entry.zone,
                                  entry.cookie_verified,
                                  stream=proto != "udp")
        if self.log_queries:
            self.query_log.append(QueryLogEntry(
                time=self._now(), qname=entry.qname,
                qtype=entry.qtype, src=src, sport=sport, proto=proto,
                rcode=entry.rcode,
                response_size=(0 if decision == "drop"
                               else entry.full_size),
                qclass=entry.qclass))
        return self._finish(decision, wire, entry.rcode,
                            wire[:2] + entry.body)

    # -- overload control -------------------------------------------------

    def _count(self, name: str, volatile: bool = False) -> None:
        obs = self._obs()
        if obs is not None:
            obs.metrics.counter(name, volatile=volatile).inc()

    def _rrl_gate(self, src: str, rcode: int, qname, qtype: int, zone,
                  verified: bool, stream: bool) -> str:
        """The RRL decision for one about-to-be-sent response.  Stream
        transports are exempt (the address is proven by the handshake —
        exactly why slip steers real clients to TCP)."""
        if self._rrl is None or stream:
            return "send"
        return self._rrl.decide(
            self._now(), src, response_key(rcode, qname, qtype, zone),
            verified)

    def _finish(self, decision: str, wire: bytes, rcode: int,
                out: bytes) -> bytes | None:
        """Apply the RRL decision to the encoded response."""
        if decision == "drop":
            self.rrl_dropped += 1
            self._count("server.rrl_dropped")
            return None
        if decision == "slip":
            self.rrl_slipped += 1
            self.responses_sent += 1
            self._count("server.rrl_slipped")
            return minimal_response(wire, rcode, tc=True)
        self.responses_sent += 1
        return out

    # -- admission control ------------------------------------------------
    #
    # The responder owns the queue and the accounting; each backend
    # owns arrival (datagram handler) and drain (worker pool / task).
    # Conservation: admission_received == admission_processed +
    # admission_shed + admission_refused + len(admission_queue).

    def admission_offer(self, wire: bytes, item) \
            -> tuple[str, bytes | None]:
        """Admission decision for one arriving datagram.  Returns
        ``("queued", None)`` after enqueuing *item* (shedding the
        oldest queued query first when the hard limit is reached), or
        ``("refused", response)`` at the soft limit — *response* is a
        minimal REFUSED built straight from the query bytes (None for
        unanswerable garbage, which still counts as refused)."""
        self.admission_received += 1
        queue = self.admission_queue
        config = self.overload.admission
        if len(queue) >= config.limit:
            queue.popleft()
            self.admission_shed += 1
            self._count("server.admission_shed")
        elif config.soft_limit is not None \
                and len(queue) >= config.soft_limit:
            self.admission_refused += 1
            self._count("server.refused_overload")
            return "refused", minimal_response(wire, Rcode.REFUSED)
        queue.append(item)
        return "queued", None

    def admission_pop(self):
        """Dequeue the oldest admitted query for processing."""
        self.admission_processed += 1
        return self.admission_queue.popleft()

    def _respond(self, wire: bytes, src: str, sport: int, proto: str) \
            -> tuple[Message, Message, Zone | None, bool] | None:
        try:
            query = Message.from_wire(wire)
        except WireError:
            return None
        if query.is_response or query.question is None:
            return None
        self.queries_handled += 1
        obs = self._obs()
        if obs is not None and self.answer_cache is not None:
            obs.metrics.counter("server.answer_cache_misses",
                                volatile=True).inc()
        handle_start = self._now()
        response, zone, view_selected = self._answer(query, src)
        if obs is not None:
            obs.metrics.counter("server.queries").inc()
            obs.metrics.counter(f"server.queries_{proto}").inc()
            obs.tracer.emit("server.handle", handle_start,
                            self._now(), detail=proto)
        return response, query, zone, view_selected

    def handle_query(self, query: Message, src: str) -> Message:
        """Pure query->response logic (transport-independent)."""
        return self._answer(query, src)[0]

    def _answer(self, query: Message, src: str) \
            -> tuple[Message, Zone | None, bool]:
        """(response, answering zone or None, view matched?) — the
        extra fields feed the answer cache's invalidation stamps."""
        response = query.make_response()
        if query.opcode != Opcode.QUERY:
            # NOTIFY/UPDATE/etc. are not implemented, like a pure
            # authoritative-only server.
            response.rcode = Rcode.NOTIMP
            return response, None, False
        question = query.question
        view = self.views.match(src)
        obs = self._obs()
        if obs is not None:
            obs.metrics.counter("server.view_selections"
                                if view is not None
                                else "server.view_misses").inc()
        zone = view.zone_for(question.qname) if view is not None else None
        if zone is None:
            self.refused += 1
            if obs is not None:
                obs.metrics.counter("server.refused").inc()
            response.rcode = Rcode.REFUSED
            return response, None, view is not None
        dnssec = query.dnssec_ok and zone.is_signed()
        result = zone.lookup(question.qname, question.qtype, dnssec=dnssec)
        if result.status in (LookupStatus.SUCCESS, LookupStatus.CNAME):
            response.flags |= Flag.AA
            response.answer.extend(result.answers)
            response.authority.extend(result.authority)
            response.additional.extend(result.additional)
        elif result.status == LookupStatus.DELEGATION:
            # A referral: not authoritative data, AA stays clear.
            response.authority.extend(result.authority)
            response.additional.extend(result.additional)
        elif result.status == LookupStatus.NXDOMAIN:
            response.flags |= Flag.AA
            response.rcode = Rcode.NXDOMAIN
            response.authority.extend(result.authority)
        elif result.status == LookupStatus.NODATA:
            response.flags |= Flag.AA
            response.authority.extend(result.authority)
        return response, zone, True

    # -- instrumentation --------------------------------------------------

    def response_sizes(self) -> list[int]:
        return [entry.response_size for entry in self.query_log]
