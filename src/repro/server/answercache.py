"""Precompiled wire-format answers — the NSD analogue (§5.2.1).

The paper's server sustains its query rates because NSD precompiles
response packets; our Python server used to re-run zone lookup and
re-encode every response from scratch.  This cache stores the encoded
response bytes for each distinct query the server has answered, keyed
by everything the response depends on:

* the raw query wire bytes *after* the 2-byte message id — qname,
  qtype, qclass, flags (RD), and the whole EDNS OPT record (DO bit,
  advertised payload size) are all in there, so two queries share an
  entry exactly when their responses are byte-identical modulo id;
* the query source address (split-horizon views select the zone by
  source, §2.4);
* the transport class — ``udp`` entries store the size-limited
  (possibly TC-truncated) datagram, ``stream`` entries the full
  message.  The UDP size limit is itself a function of the query's
  EDNS payload field, which is part of the key bytes.

On a hit the server sends ``query[:2] + entry.body`` — the 2-byte id
patch NSD does — and replays the bookkeeping side effects (query log,
counters) from the entry, so a cached run is observably identical to an
uncached one.

Invalidation is O(1) per lookup: the cache remembers the view
selector's ``generation`` (any view/zone-set change flushes everything)
and each entry carries the answering zone's ``version`` (any mutation
of that zone drops its entries lazily).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.constants import RRClass
from repro.dns.name import Name


@dataclass(frozen=True)
class CachedAnswer:
    """Everything needed to replay one response without the DNS engine."""

    body: bytes            # response wire minus the 2-byte message id
    rcode: int
    full_size: int         # untruncated response size (query-log field)
    qname: Name
    qtype: int
    view_selected: bool    # a view matched the source address
    refused: bool          # no zone answered (REFUSED)
    zone: object | None    # answering Zone, None for REFUSED
    zone_version: int
    # The query presented a valid DNS Cookie.  Part of the entry, not
    # re-derived: the COOKIE option lives in the cache key bytes and
    # the source address in the key, so the stored verdict is exactly
    # what re-validation would produce.
    cookie_verified: bool = False
    qclass: int = RRClass.IN   # the question's class (query log field)


class AnswerCache:
    """Bounded map of (source, transport class, query tail) -> answer."""

    def __init__(self, views, max_entries: int = 100_000):
        self._views = views
        self._generation = views.generation
        self._entries: dict[tuple, CachedAnswer] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def invalidate(self) -> None:
        """Drop every entry (zone/view change, or explicit flush)."""
        self._entries.clear()
        self._generation = self._views.generation

    def get(self, src: str, stream: bool,
            wire: bytes) -> CachedAnswer | None:
        if self._generation != self._views.generation:
            self.invalidate()
            self.misses += 1
            return None
        entry = self._entries.get((src, stream, wire[2:]))
        if entry is None:
            self.misses += 1
            return None
        zone = entry.zone
        if zone is not None and zone.version != entry.zone_version:
            # The answering zone changed: this entry (and its siblings,
            # lazily) is stale.
            del self._entries[(src, stream, wire[2:])]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, src: str, stream: bool, wire: bytes,
            entry: CachedAnswer) -> None:
        entries = self._entries
        if len(entries) >= self.max_entries:
            # Deterministic FIFO eviction: drop the oldest insertion.
            del entries[next(iter(entries))]
        entries[(src, stream, wire[2:])] = entry
