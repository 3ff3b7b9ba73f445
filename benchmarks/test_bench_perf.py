"""Fast-replay bench: the Fig-9 workload serves every query, cached.

The paper's replay engine is engineered so the query *generator* — not
the server or the event loop — is the bottleneck (§4.3, 87 k q/s from
one core in C++).  This bench replays the Fig-9 continuous-UDP workload
(identical ``www.example.com A`` queries, fast mode, one client
instance, six queriers) and asserts that every query is served and
answered, that the answer cache (the NSD precompiled-answer analogue)
hits, and that it pays for itself in wall-clock time.  It prints the
wall-clock rates to ``benchmarks/_results/``.

The throughput CI gates on is ldpbench's calibrated
``fig9-udp-fast/replay_qps`` and ``cpu_us_per_query`` (see
``benchmarks/check_perf_regression.py`` and EXPERIMENTS.md).
"""

from __future__ import annotations

import time

from benchmarks.reporting import record
from repro.experiments.harness import authoritative_world, wildcard_zone
from repro.experiments.throughput import GENERATOR_COST
from repro.trace.record import QueryRecord, Trace

QUERIES = 20_000


def _run_fig9(answer_cache: bool = True):
    records = [QueryRecord(time=0.0, src="172.16.0.1",
                           qname="www.example.com.")] * QUERIES
    world = authoritative_world([wildcard_zone()], mode="direct",
                                client_instances=1,
                                queriers_per_instance=6,
                                timing_jitter=True,
                                answer_cache=answer_cache, seed=9)
    world.engine.config.fast = True
    world.engine.config.reader_cost = GENERATOR_COST
    t0 = time.perf_counter()
    result = world.run(Trace(records, name="fast-stream"),
                       extra_time=1.0)
    wall = time.perf_counter() - t0
    return world, result, wall


def test_bench_perf_fig9_fast_replay():
    world, result, wall = _run_fig9()
    served = world.server.queries_handled
    scheduler = world.sim.scheduler
    cache = world.server.answer_cache
    qps = served / wall
    record("perf_fig9_fast_udp", [
        f"fast-mode replay: {qps:,.0f} q/s wall-clock "
        f"({served:,} queries in {wall:.2f}s)",
        f"scheduler: {scheduler.events_processed:,} events, "
        f"{scheduler.events_processed / wall:,.0f} events/wall-sec",
        f"answer cache: hit rate {cache.hit_rate():.1%} "
        f"({len(cache)} entries)",
    ])
    assert served == QUERIES
    assert result.report.answered_fraction() == 1.0
    # Identical queries from one source: everything after the first
    # miss per (transport, id-tail) must hit.
    assert cache.hit_rate() > 0.9
    # Generous sanity floor (an order of magnitude below any observed
    # machine): catches only pathological slowdowns; the real gate is
    # ldpbench's calibrated fig9-udp-fast baseline.
    assert qps > 200


def test_bench_perf_cache_speedup():
    """The answer cache must actually pay for itself on this workload."""
    _, _, wall_off = _run_fig9(answer_cache=False)
    _, _, wall_on = _run_fig9(answer_cache=True)
    speedup = wall_off / wall_on
    record("perf_cache_speedup", [
        f"answer cache speedup on Fig-9 workload: {speedup:.2f}x "
        f"({wall_off:.2f}s -> {wall_on:.2f}s)",
    ])
    # The cache removes parse+lookup+encode from ~100% of queries here;
    # allow scheduling noise but insist on a real win.
    assert speedup > 1.2
