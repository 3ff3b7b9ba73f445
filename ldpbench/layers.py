"""Per-layer metrics from a traced run.

Timings come from the spans of the traced repetitions; counts come from
the counters the workload reads off the world.  Times are scaled to the
reference interpreter speed as in ``run.py``.  ``.us`` metrics are the
mean self time of one call: its duration minus the wrapped calls made
inside it, so time spent in another layer is not counted twice.
``.self_share`` metrics are a layer's self time over the root span's
wall time, and ``.per_query`` metrics are calls per replayed query.
A metric whose layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics

from ldpbench.spans import Summary
from ldpbench.workloads import REFERENCE_MOPS

# name -> unit, in the order they are printed.
PER_LAYER = {
    "unattributed_share": "ratio",
    "tracing_overhead": "x",
    "dns.from_wire.us": "us",
    "dns.to_wire.us": "us",
    "dns.name_from_text.us": "us",
    "dns.from_wire.per_query": "1/query",
    "dns.to_wire.per_query": "1/query",
    "dns.zone_lookup.us": "us",
    "dns.zone_lookup.per_query": "1/query",
    "dns.self_share": "ratio",
    "server.reply_wire.us": "us",
    "server.answer_cache.hit_ratio": "ratio",
    "server.self_share": "ratio",
    "netsim.clock.at.us": "us",
    "netsim.clock.events_per_query": "1/query",
    "netsim.clock.self_share": "ratio",
    "netsim.transmit.us": "us",
    "netsim.transmit.per_query": "1/query",
    "netsim.tcp.send.per_query": "1/query",
    "netsim.framer.feed.us": "us",
    "netsim.self_share": "ratio",
    "replay.send.us": "us",
    "replay.distributor.us": "us",
    "replay.self_share": "ratio",
    "replay.retransmits": "count",
    "replay.tcp_fallbacks": "count",
    "server.recursive.upstream_per_query": "1/query",
    "server.recursive.cache_answer_ratio": "ratio",
    "server.cache.us": "us",
    "server.cache.hit_ratio": "ratio",
    "server.cache.evictions": "count",
    "live.server_share": "ratio",
    "live.client_share": "ratio",
    "live.socket_errors": "count",
    "trace.mutate.us_per_record": "us",
    "trace.decode.us_per_record": "us",
    "zonegen.construct_s": "s",
}

SERVER_SPAN = "DnsResponder.reply_wire"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _seconds(stats: dict, *names: str) -> float:
    return sum(stats[n].inclusive for n in names if n in stats)


def _calls(stats: dict, *names: str) -> int:
    return sum(stats[n].calls for n in names if n in stats)


def _mean_us(stats: dict, *names: str) -> float:
    seconds = sum(stats[n].self_time for n in names if n in stats)
    return _ratio(seconds, _calls(stats, *names)) * 1e6


def layer_metrics(workload, untraced: list, traced: list) \
        -> tuple[dict[str, float], list[str]]:
    """Fold the traced repetitions into :data:`PER_LAYER` values, and
    print-ready lines of the per-span table."""
    summary = Summary()
    for rep in traced:
        summary.merge(rep.spans)
    inside, outside = summary.inside, summary.outside
    wall = summary.root_wall
    queries = sum(rep.attempted for rep in traced)
    counts: dict[str, int] = {}
    for rep in traced:
        for key, value in rep.counts.items():
            counts[key] = counts.get(key, 0) + value
    reps = len(traced)
    shares = {layer: _ratio(seconds, wall)
              for layer, seconds in summary.layer_self().items()}
    top_client = sum(seconds for name, seconds in summary.top_level.items()
                     if name != SERVER_SPAN)
    live = not workload.sim

    values = {
        "unattributed_share": _ratio(summary.root_self, wall),
        "tracing_overhead": _ratio(
            statistics.median(r.replay.scaled(r.replay.wall)
                              for r in traced),
            statistics.median(r.replay.scaled(r.replay.wall)
                              for r in untraced)),
        "dns.from_wire.us": _mean_us(inside, "Message.from_wire"),
        "dns.to_wire.us": _mean_us(inside, "Message.to_wire"),
        "dns.name_from_text.us": _mean_us(inside, "Name.from_text"),
        "dns.from_wire.per_query":
            _ratio(_calls(inside, "Message.from_wire"), queries),
        "dns.to_wire.per_query":
            _ratio(_calls(inside, "Message.to_wire"), queries),
        "dns.zone_lookup.us": _mean_us(inside, "Zone.lookup"),
        "dns.zone_lookup.per_query":
            _ratio(_calls(inside, "Zone.lookup"), queries),
        "dns.self_share": shares.get("dns", 0.0),
        "server.reply_wire.us": _mean_us(inside, SERVER_SPAN),
        "server.answer_cache.hit_ratio": _ratio(
            counts.get("answer_hits", 0),
            counts.get("answer_hits", 0) + counts.get("answer_misses", 0)),
        "server.self_share": shares.get("server", 0.0),
        "netsim.clock.at.us": _mean_us(inside, "Scheduler.at"),
        "netsim.clock.events_per_query":
            _ratio(counts.get("events", 0), queries),
        "netsim.clock.self_share": shares.get("netsim.clock", 0.0),
        "netsim.transmit.us": _mean_us(inside, "Network.transmit"),
        "netsim.transmit.per_query":
            _ratio(_calls(inside, "Network.transmit"), queries),
        "netsim.tcp.send.per_query":
            _ratio(_calls(inside, "TcpConnection.send"), queries),
        "netsim.framer.feed.us":
            _mean_us(inside, "LengthPrefixFramer.feed"),
        "netsim.self_share": shares.get("netsim", 0.0),
        "replay.send.us": _mean_us(inside, "Querier.handle_record",
                                   "Querier.handle_record_fast"),
        "replay.distributor.us":
            _mean_us(inside, "Distributor.handle_record"),
        "replay.self_share": shares.get("replay", 0.0),
        "replay.retransmits": _ratio(counts.get("retransmits", 0), reps),
        "replay.tcp_fallbacks":
            _ratio(counts.get("tcp_fallbacks", 0), reps),
        "server.recursive.upstream_per_query":
            _ratio(counts.get("upstream", 0), queries),
        "server.recursive.cache_answer_ratio":
            _ratio(counts.get("cache_answers", 0), queries),
        "server.cache.us": _mean_us(
            inside, "DnsCache.get_rrset", "DnsCache.put_rrset",
            "DnsCache.get_negative", "DnsCache.best_nameservers"),
        "server.cache.hit_ratio": _ratio(counts.get("cache_hits", 0),
                                         counts.get("cache_lookups", 0)),
        "server.cache.evictions":
            _ratio(counts.get("cache_evictions", 0), reps),
        "live.server_share": (_ratio(inside[SERVER_SPAN].inclusive, wall)
                              if live and SERVER_SPAN in inside else 0.0),
        "live.client_share": _ratio(top_client, wall) if live else 0.0,
        "live.socket_errors": _ratio(counts.get("socket_errors", 0), reps),
        # Every pipeline call runs over the whole generated trace.
        "trace.mutate.us_per_record": _ratio(
            _seconds(outside, "TracePipeline.to_binary") * 1e6,
            _calls(outside, "TracePipeline.to_binary") * workload.records),
        "trace.decode.us_per_record": _ratio(
            _seconds(outside, "TracePipeline.collect") * 1e6,
            _calls(outside, "TracePipeline.collect") * workload.records),
        "zonegen.construct_s": _ratio(
            _seconds(outside, "harvest_trace", "construct_zones"), reps),
    }
    # Times are scaled to the reference speed like the end-to-end ones,
    # by the mean speed sampled during the phase the spans ran in.
    scale = {phase: statistics.fmean(getattr(r, phase).speed
                                     for r in traced) / REFERENCE_MOPS
             for phase in ("ingest", "setup", "replay")}
    for key in values:
        if key.startswith("trace."):
            values[key] *= scale["ingest"]
        elif key == "zonegen.construct_s":
            values[key] *= scale["setup"]
        elif key.endswith(".us"):
            values[key] *= scale["replay"]
    lines = [f"root span: {wall:.4f} s over {reps} traced repetitions, "
             f"{queries} queries"]
    lines.append(f"{'span':<32} {'calls':>9} {'incl s':>9} {'self s':>9}")
    for where, stats in (("in run", inside), ("outside run", outside)):
        for name, s in sorted(stats.items()):
            lines.append(f"{name:<32} {s.calls:>9} {s.inclusive:>9.4f} "
                         f"{s.self_time:>9.4f}  {where}")
    lines.append("layer self s: " + ", ".join(
        f"{layer}={seconds:.4f}"
        for layer, seconds in sorted(summary.layer_self().items())))
    return values, lines
