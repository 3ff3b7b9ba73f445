"""Perf-regression bench: wall-clock throughput of the hot paths.

The paper's replay engine is engineered so the query *generator* — not
the server or the event loop — is the bottleneck (§4.3, 87 k q/s from
one core in C++).  This bench keeps our Python counterpart honest: it
replays the Fig-9 continuous-UDP workload (identical ``www.example.com
A`` queries, fast mode, one client instance, six queriers) and records

* wall-clock replay throughput (queries served / second),
* scheduler events per wall-second,
* the answer-cache hit rate (the NSD precompiled-answer analogue),

into the repo-root ``BENCH_perf.json`` via
:func:`benchmarks.reporting.record_perf`.  CI runs this on every push,
uploads the file as an artifact, and fails if ``normalized_qps`` drops
more than 20% below ``benchmarks/perf_baseline.json`` (see
``benchmarks/check_perf_regression.py``).

Raw q/s is machine-dependent, so the gate uses *normalized* throughput:
q/s divided by a pure-Python calibration rate measured in the same
process — roughly "queries per million interpreter operations" — which
cancels out host speed differences between laptops and CI runners.
"""

from __future__ import annotations

import time

from benchmarks.reporting import record, record_perf
from repro.experiments.harness import authoritative_world, wildcard_zone
from repro.experiments.throughput import GENERATOR_COST
from repro.trace.record import QueryRecord, Trace

QUERIES = 20_000


def _calibrate(iterations: int = 2_000_000) -> float:
    """Interpreter speed probe: simple-loop iterations per second."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i & 7
    elapsed = time.perf_counter() - t0
    assert x > 0
    return iterations / elapsed


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
    calibration = _calibrate()
    world, result, wall = _run_fig9()
    served = world.server.queries_handled
    scheduler = world.sim.scheduler
    cache = world.server.answer_cache
    qps = served / wall
    normalized = qps / (calibration / 1e6)
    payload = {
        "queries": served,
        "wall_seconds": round(wall, 3),
        "qps": round(qps, 1),
        "calibration_ops_per_sec": round(calibration, 1),
        "normalized_qps": round(normalized, 2),
        "events": scheduler.events_processed,
        "events_per_wall_sec": round(scheduler.events_processed / wall,
                                     1),
        "answer_cache_hit_rate": round(cache.hit_rate(), 4),
        "answer_cache_entries": len(cache),
    }
    record_perf("fig9_fast_udp", payload)
    record("perf_fig9_fast_udp", [
        f"fast-mode replay: {qps:,.0f} q/s wall-clock "
        f"({served:,} queries in {wall:.2f}s)",
        f"scheduler: {scheduler.events_processed:,} events, "
        f"{scheduler.events_processed / wall:,.0f} events/wall-sec",
        f"answer cache: hit rate {cache.hit_rate():.1%} "
        f"({len(cache)} entries)",
        f"normalized throughput: {normalized:.2f} q/s per M-ops/s "
        f"(calibration {calibration / 1e6:.1f} M-ops/s)",
    ])
    assert served == QUERIES
    assert result.report.answered_fraction() == 1.0
    # Identical queries from one source: everything after the first
    # miss per (transport, id-tail) must hit.
    assert cache.hit_rate() > 0.9
    # Generous sanity floor (an order of magnitude below any observed
    # machine): catches only pathological slowdowns; the real gate is
    # the CI baseline comparison.
    assert qps > 200


def test_bench_perf_cache_speedup():
    """The answer cache must actually pay for itself on this workload."""
    _, _, wall_off = _run_fig9(answer_cache=False)
    _, _, wall_on = _run_fig9(answer_cache=True)
    speedup = wall_off / wall_on
    record_perf("fig9_cache_speedup", {
        "wall_cache_off": round(wall_off, 3),
        "wall_cache_on": round(wall_on, 3),
        "speedup": round(speedup, 2),
    })
    record("perf_cache_speedup", [
        f"answer cache speedup on Fig-9 workload: {speedup:.2f}x "
        f"({wall_off:.2f}s -> {wall_on:.2f}s)",
    ])
    # The cache removes parse+lookup+encode from ~100% of queries here;
    # allow scheduling noise but insist on a real win.
    assert speedup > 1.2
