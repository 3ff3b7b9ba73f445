"""Resolver-cache bench: the policy sweep's seeded hit ratios.

The cachepolicy sweep (unbounded, LRU at working-set capacity, LRU at
1/8 capacity, all at Zipf skew 1.0) is seeded, so its hit ratios are
identical on every machine and this bench pins them exactly: any
eviction or expiry arithmetic change shows here, and belongs in a PR
that also re-records the Rec-17 golden, which pins the counters
byte-exactly.  The resolver cache's speed is gated by ldpbench's
calibrated ``rec17-recursive-lru`` pairs (see EXPERIMENTS.md).

The headline acceptance bar asserted here: bounded LRU at capacity >=
working-set size stays within 5% (absolute hit ratio) of unbounded.
"""

from __future__ import annotations

from benchmarks.reporting import record
from repro.experiments.cachepolicy import (WORKING_SET,
                                           lru_vs_unbounded_gap, sweep)

LOOKUPS = 20_000


def test_bench_cache_policy():
    cells = sweep(capacities=(None, WORKING_SET, WORKING_SET // 8),
                  skews=(1.0,), lookups=LOOKUPS)
    by_cap = {cell.capacity: cell for cell in cells}
    unbounded = by_cap[None]
    at_ws = by_cap[WORKING_SET]
    small = by_cap[WORKING_SET // 8]

    # The acceptance bar: capacity >= working set loses < 5% hit ratio
    # while actually bounding the entry count and memory estimate.
    gap = lru_vs_unbounded_gap(cells, capacity=WORKING_SET)
    assert gap <= 0.05
    assert at_ws.entries <= WORKING_SET
    assert small.entries <= WORKING_SET // 8
    assert small.memory_bytes < unbounded.memory_bytes
    # Shrinking capacity below the working set must cost hits.
    assert small.hit_ratio < at_ws.hit_ratio

    record("bench_cache", [
        f"Zipf 1.0 stream, {LOOKUPS} lookups, working set "
        f"{WORKING_SET}, TTL 60s",
        f"unbounded          hit={unbounded.hit_ratio:7.2%}",
        f"LRU @ {WORKING_SET:>4}         hit={at_ws.hit_ratio:7.2%} "
        f"(gap {gap:.2%}, bar <= 5%)",
        f"LRU @ {WORKING_SET // 8:>4}         hit={small.hit_ratio:7.2%} "
        f"evictions={small.evictions}",
    ])
    # Seeded, so exact on every machine.
    assert [round(cell.hit_ratio, 4) for cell in (unbounded, at_ws,
                                                  small)] == \
        [0.9744, 0.9744, 0.5726]
    assert gap == 0.0
