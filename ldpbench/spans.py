"""In-memory span tracer that wraps layer entry points from outside.

The program itself is not instrumented.  :class:`SpanTracer` replaces
chosen synchronous public functions (class methods, classmethods and
module functions) with wrappers that record one span per call: name,
start, end and the index of the enclosing span.  Spans are appended to
flat arrays, so a traced replay of tens of thousands of queries costs a
few megabytes.  Wrappers are installed only inside ``with tracer:`` and
the originals are restored on exit.

Coroutines are never wrapped: a span must open and close without the
event loop running in between, which keeps the enclosing-span stack
exact even on the live (asyncio) backend.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass, field

# (layer, span name, module, owner attribute path or None for a module
# function, attribute).  The span name is what the per-layer metrics
# refer to; the layer is what self time is folded into.
TARGETS: tuple[tuple[str, str, str, str | None, str], ...] = (
    ("dns", "Message.from_wire", "repro.dns.message", "Message",
     "from_wire"),
    ("dns", "Message.to_wire", "repro.dns.message", "Message", "to_wire"),
    ("dns", "Name.from_text", "repro.dns.name", "Name", "from_text"),
    ("dns", "Zone.lookup", "repro.dns.zone", "Zone", "lookup"),
    ("server", "DnsResponder.reply_wire", "repro.server.responder",
     "DnsResponder", "reply_wire"),
    # The simulated transports call reply_wire through this alias.
    ("server", "DnsResponder.reply_wire", "repro.server.responder",
     "DnsResponder", "_reply_wire"),
    ("server", "AnswerCache.get", "repro.server.answercache",
     "AnswerCache", "get"),
    ("server", "AnswerCache.put", "repro.server.answercache",
     "AnswerCache", "put"),
    ("server", "RecursiveResolver.resolve", "repro.server.recursive",
     "RecursiveResolver", "resolve"),
    ("server", "DnsCache.get_rrset", "repro.server.cache", "DnsCache",
     "get_rrset"),
    ("server", "DnsCache.put_rrset", "repro.server.cache", "DnsCache",
     "put_rrset"),
    ("server", "DnsCache.get_negative", "repro.server.cache", "DnsCache",
     "get_negative"),
    ("server", "DnsCache.best_nameservers", "repro.server.cache",
     "DnsCache", "best_nameservers"),
    ("netsim.clock", "Scheduler.at", "repro.netsim.clock", "Scheduler",
     "at"),
    ("netsim.clock", "Scheduler.after", "repro.netsim.clock", "Scheduler",
     "after"),
    ("netsim", "Network.transmit", "repro.netsim.network", "Network",
     "transmit"),
    ("netsim", "UdpSocket.sendto", "repro.netsim.udp", "UdpSocket",
     "sendto"),
    ("netsim", "TcpConnection.send", "repro.netsim.tcp", "TcpConnection",
     "send"),
    ("netsim", "TcpConnection.handle_segment", "repro.netsim.tcp",
     "TcpConnection", "handle_segment"),
    ("netsim", "LengthPrefixFramer.feed", "repro.netsim.framing",
     "LengthPrefixFramer", "feed"),
    ("replay", "Querier.handle_record", "repro.replay.querier", "Querier",
     "handle_record"),
    ("replay", "Querier.handle_record_fast", "repro.replay.querier",
     "Querier", "handle_record_fast"),
    ("replay", "Distributor.handle_record", "repro.replay.distributor",
     "Distributor", "handle_record"),
    ("trace", "TracePipeline.to_binary", "repro.trace.pipeline",
     "TracePipeline", "to_binary"),
    ("trace", "TracePipeline.collect", "repro.trace.pipeline",
     "TracePipeline", "collect"),
    # The benchmark calls these through the package, so the package
    # attribute is the one to replace.
    ("zonegen", "harvest_trace", "repro.zonegen", None, "harvest_trace"),
    ("zonegen", "construct_zones", "repro.zonegen", None,
     "construct_zones"),
)

LAYER_OF = {name: layer for layer, name, *_ in TARGETS}
ROOT = "run"


@dataclass
class SpanStats:
    """Per-name totals over the spans of one or more traced runs."""

    calls: int = 0
    inclusive: float = 0.0      # seconds, children included
    self_time: float = 0.0      # seconds, wrapped children excluded

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.inclusive += other.inclusive
        self.self_time += other.self_time


@dataclass
class Summary:
    """Spans folded by name, split at the root span."""

    root_wall: float = 0.0
    root_self: float = 0.0
    # Spans inside the root (the replay) and outside it (ingest, setup).
    inside: dict[str, SpanStats] = field(default_factory=dict)
    outside: dict[str, SpanStats] = field(default_factory=dict)
    # Inclusive time of spans called directly from the root.
    top_level: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "Summary") -> None:
        self.root_wall += other.root_wall
        self.root_self += other.root_self
        for mine, theirs in ((self.inside, other.inside),
                             (self.outside, other.outside)):
            for name, stats in theirs.items():
                mine.setdefault(name, SpanStats()).add(stats)
        for name, seconds in other.top_level.items():
            self.top_level[name] = self.top_level.get(name, 0.0) + seconds

    def layer_self(self) -> dict[str, float]:
        """Self seconds inside the root, folded by layer."""
        out: dict[str, float] = {}
        for name, stats in self.inside.items():
            layer = LAYER_OF[name]
            out[layer] = out.get(layer, 0.0) + stats.self_time
        return out


class SpanTracer:
    """Records spans around :data:`TARGETS` while entered."""

    def __init__(self) -> None:
        self._names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span (between traced runs)."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._root: tuple[int, int] | None = None

    # -- installing --------------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        for _, name, module_name, owner_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            raw = (owner.__dict__[attr] if owner_name is not None
                   else getattr(owner, attr))
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, fn):
        span_id = self._ids.setdefault(name, len(self._names))
        if span_id == len(self._names):
            self._names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(span_id, fn, args, kwargs)
        return wrapper

    def _call(self, span_id: int, fn, args, kwargs):
        stack = self._stack
        index = len(self.start)
        self.name_id.append(span_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            stack.pop()

    def root(self, fn, *args):
        """Call ``fn(*args)`` as the root span: the experiment's or
        backend's ``run``."""
        first = len(self.start)
        try:
            return self._call(0, fn, args, {})
        finally:
            self._root = (first, len(self.start))

    # -- folding -----------------------------------------------------------

    def summary(self) -> Summary:
        """Fold the recorded spans by name.  Self time is a span's
        duration minus the durations of its direct wrapped children."""
        if self._root is None:
            raise RuntimeError("no root span was recorded")
        count = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        parent = self.parent
        for i in range(count):
            if parent[i] >= 0:
                children[parent[i]] += durations[i]
        first, last = self._root
        out = Summary(root_wall=durations[first],
                      root_self=durations[first] - children[first])
        for i in range(count):
            if i == first:
                continue
            name = self._names[self.name_id[i]]
            bucket = out.inside if first < i < last else out.outside
            stats = bucket.setdefault(name, SpanStats())
            stats.calls += 1
            stats.inclusive += durations[i]
            stats.self_time += durations[i] - children[i]
            if parent[i] == first:
                out.top_level[name] = (out.top_level.get(name, 0.0)
                                       + durations[i])
        return out
