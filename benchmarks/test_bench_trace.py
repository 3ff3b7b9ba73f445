"""Trace-pipeline bench: records/sec, and byte identity, three ways.

§3's input engine must pre-process multi-hour root traces, so trace
transformation throughput matters as much as replay throughput.  This
bench runs the §5 what-if mutation chain (all-TLS + DO=1.0 + unique
names + rebase) over a B-Root analogue trace three ways:

* **serial (legacy)** — the pre-pipeline architecture: decode every
  record, apply each mutation as a full map over a rebuilt record
  list (one list per op, exactly what the removed
  ``repro.trace.mutate`` wrappers did), re-encode;
* **pipeline --jobs 1** — :class:`repro.trace.pipeline.TracePipeline`
  in-process: one chunked pass, compiled frame ops patch the LDPB
  bytes directly;
* **pipeline --jobs 4** — the same pipeline fanned across 4 worker
  processes.

All three outputs are asserted **byte-identical** — the speedup is
free of semantic drift by construction.  The rates are printed to
``benchmarks/_results/``; the throughput CI gates on is ldpbench's
calibrated ``broot-whatif-tcp/trace_records_per_s`` (the frame-mode
mutation, which is where the pipeline's speedup comes from; see
EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import time

from benchmarks.reporting import record
from repro.experiments.harness import root_zone_world
from repro.trace.binaryform import binary_to_trace, trace_to_binary
from repro.trace.pipeline import (PrependUnique, RebaseTime,
                                  SetDoFraction, SetProtocol,
                                  TracePipeline)
from repro.workloads.broot import BRootParams, generate_broot_trace

CHAIN = (SetProtocol("tls"), SetDoFraction(1.0), PrependUnique("q"),
         RebaseTime())

DURATION = 30.0
MEAN_RATE = 2500.0      # ~75k records, a B-Root-scale minute slice


def _broot_analogue_ldpb() -> bytes:
    internet = root_zone_world()
    trace = generate_broot_trace(internet, BRootParams(
        duration=DURATION, mean_rate=MEAN_RATE, clients=3000, seed=42,
        do_fraction=0.3, tcp_fraction=0.05, junk_fraction=0.2))
    return trace_to_binary(trace.sorted())


def _legacy_serial(data: bytes) -> tuple[bytes, float]:
    """The pre-pipeline hot path: full decode, one rebuilt record list
    per mutation (mirroring the old ``mutate._mapped`` architecture),
    full re-encode."""
    t0 = time.perf_counter()
    trace = binary_to_trace(data)
    for op in CHAIN:
        trace = op.apply(trace)
    out = trace_to_binary(trace)
    return out, time.perf_counter() - t0


def _pipeline(data: bytes, jobs: int) -> tuple[bytes, float]:
    t0 = time.perf_counter()
    out = TracePipeline.from_binary(
        data, jobs=jobs, chunk_records=8192).pipe(*CHAIN).to_binary()
    return out, time.perf_counter() - t0


def test_bench_trace_throughput():
    data = _broot_analogue_ldpb()
    records = len(binary_to_trace(data))
    assert records > 50_000

    legacy_out, legacy_wall = _legacy_serial(data)
    p1_out, p1_wall = _pipeline(data, jobs=1)
    p4_out, p4_wall = _pipeline(data, jobs=4)

    # The determinism contract, asserted on the bench workload itself:
    # parallel == serial pipeline == legacy, byte for byte.
    assert p1_out == legacy_out
    assert p4_out == legacy_out

    serial_rps = records / legacy_wall
    p1_rps = records / p1_wall
    p4_rps = records / p4_wall
    record("bench_trace", [
        f"B-Root analogue, {records} records, "
        f"chain = all-TLS + DO=1.0 + unique + rebase",
        f"legacy serial      {serial_rps:>12.0f} records/s",
        f"pipeline --jobs 1  {p1_rps:>12.0f} records/s",
        f"pipeline --jobs 4  {p4_rps:>12.0f} records/s "
        f"({os.cpu_count()} core(s)); outputs byte-identical",
    ])
