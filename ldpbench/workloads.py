"""The benchmark's four workloads: inputs, one repetition, checks.

Each workload generates its inputs from the seed once (untimed), then
every repetition runs the same three timed phases from those inputs:

1. **ingest** - the generated trace, held as LDPB bytes, goes through
   :class:`~repro.trace.pipeline.TracePipeline` (jobs=1) into the
   :class:`~repro.trace.record.Trace` the replay consumes; on
   ``broot-whatif-tcp`` this is the what-if mutation;
2. **setup** - everything from those inputs to a world ready to
   replay: zone construction (``rec17-recursive-lru``), server and zone
   indexing, querier and backend build;
3. **replay** - the experiment's or backend's ``run``.

Shared hosts are noisy: on a 2-vCPU Xeon VM the same loop ran anywhere
between ~14 and ~25 M iterations/s from one second to the next, in CPU
time as well as wall time.  So every phase runs under a :class:`SpeedSampler`,
which times a short interpreter loop before, after, and every 30 ms
during the phase, and the phase's times are scaled by the mean speed
it saw (:meth:`Phase.scaled`).  Over six 15-second runs of
``broot-whatif-tcp`` on that VM this cut the spread of replay rates from 10% to 2%;
probing only before and after each phase left 5%.

A repetition ends with the workload's correctness checks.  Repetitions
of a sim workload must agree on one report digest.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro import zonegen
from repro.core import ExperimentConfig, RecursiveExperiment
from repro.dns.constants import Rcode
from repro.experiments.harness import (authoritative_world,
                                       root_zone_world, wildcard_root_zone,
                                       wildcard_zone)
from repro.experiments.throughput import GENERATOR_COST
from repro.replay import ReplayConfig, ResilienceConfig
from repro.replay.backends import LiveBackend, LiveReplayConfig
from repro.server.cache import CacheConfig
from repro.trace.binaryform import trace_to_binary
from repro.trace.pipeline import SetDoFraction, SetProtocol, TracePipeline
from repro.trace.record import QueryRecord, Trace
from repro.workloads import (ModelInternet, RecursiveParams,
                             generate_recursive_trace)
from repro.workloads.broot import BRootParams, generate_broot_trace

ANSWERED_RCODES = frozenset({Rcode.NOERROR, Rcode.NXDOMAIN})

# Times are reported as they would read at this calibration rate
# (M iterations/s).
REFERENCE_MOPS = 20.0
# The pipeline stage is repeated until it has moved this many records,
# so that it runs long enough (~0.5 s) to time steadily.
INGEST_RECORDS = 80_000


def calibrate(iterations: int = 2_000_000) -> float:
    """Interpreter speed in M simple-loop iterations per second: the
    probe the Fig-9 perf-regression bench normalizes by."""
    start = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i & 7
    elapsed = time.perf_counter() - start
    if x <= 0:
        raise RuntimeError("calibration loop did not run")
    return iterations / elapsed / 1e6


class SpeedSampler:
    """Samples interpreter speed while a phase runs: one probe on entry
    and one on exit in the calling thread, and a short probe every
    ``INTERVAL`` seconds from a background thread in between.  The
    background probes take the interpreter lock for ~1 ms each, a few
    percent of the phase, and read no state of the program."""

    INTERVAL = 0.03
    EDGE_ITERATIONS = 200_000       # ~10 ms
    INNER_ITERATIONS = 20_000       # ~1 ms

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self.samples.append(calibrate(self.INNER_ITERATIONS))

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(calibrate(self.EDGE_ITERATIONS))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(calibrate(self.EDGE_ITERATIONS))

    def mean(self) -> float:
        return statistics.fmean(self.samples)


@dataclass
class Phase:
    """One timed phase: wall seconds, CPU seconds of the replaying
    thread, and the mean interpreter speed sampled during it."""

    wall: float
    cpu: float
    speed: float

    def scaled(self, seconds: float) -> float:
        """*seconds* of this phase as they would read on a host whose
        probe runs at :data:`REFERENCE_MOPS`."""
        return seconds * self.speed / REFERENCE_MOPS


def _phase(fn, *args):
    gc.collect()
    with SpeedSampler() as sampler:
        cpu0 = time.thread_time()
        start = time.perf_counter()
        value = fn(*args)
        wall = time.perf_counter() - start
        cpu = time.thread_time() - cpu0
    return value, Phase(wall, cpu, sampler.mean())


@dataclass
class Rep:
    """What one repetition measured and found."""

    ingest: Phase               # the timed pipeline stage
    ingest_records: int         # records it moved, over all passes
    setup: Phase
    replay: Phase
    attempted: int
    answered: int
    digest: str | None
    # Counters read off the world after the replay.  On a sim workload
    # every one of them is a deterministic function of the inputs.
    counts: dict[str, int]
    problems: list[str] = field(default_factory=list)
    spans: object = None        # spans.Summary of a traced repetition


def report_digest(report) -> str:
    """Digest of the canonical report JSON plus every result's timing
    and outcome, so two commits can be compared for identical simulated
    statistics (latency included)."""
    h = hashlib.sha256(report.to_json().encode())
    for r in report.results:
        h.update(repr((r.record.src, r.record.qname, r.record.qtype,
                       r.send_time, r.response_time, r.rcode,
                       r.response_size, r.attempts)).encode())
    return h.hexdigest()[:16]


def _count_queriers(queriers) -> dict[str, int]:
    return {"retransmits": sum(q.retransmits for q in queriers),
            "tcp_fallbacks": sum(q.tcp_fallbacks for q in queriers)}


def _count_answer_cache(cache) -> dict[str, int]:
    return {"answer_hits": cache.hits, "answer_misses": cache.misses}


def _count_sim(sim) -> dict[str, int]:
    network = sim.network
    return {"events": sim.scheduler.events_processed,
            "transmits": (network.delivered + network.dropped
                          + len(network.leaked)),
            "leaked": len(network.leaked)}


class Workload:
    """Base: subclasses generate ``ldpb`` (and count its ``records``)
    in ``__init__`` and implement ``build``, ``replay`` and
    ``observe``."""

    name = ""
    sim = True
    ldpb = b""
    records = 0

    def __init__(self, seed: int):
        self.seed = seed

    def ingest(self):
        """One pass of the timed pipeline stage over all ``records``."""
        return TracePipeline.from_binary(self.ldpb).collect()

    def replay_input(self, ingested) -> Trace:
        """The trace to replay, from what ``ingest`` returned."""
        return ingested

    def build(self, trace):
        raise NotImplementedError

    def replay(self, world, trace):
        return world.run(trace).report

    def observe(self, world, report) -> tuple[int, dict[str, int]]:
        """Return (queries the server handled, counters)."""
        raise NotImplementedError

    def close(self, world) -> None:
        """Release what ``build`` opened."""


class _Authoritative(Workload):
    """A simulated replay straight at an authoritative server."""

    def observe(self, world, report):
        counts = {**_count_sim(world.sim),
                  **_count_answer_cache(world.server.answer_cache),
                  **_count_queriers(report.queriers)}
        return world.server.queries_handled, counts


class Fig9UdpFast(_Authoritative):
    """Fig-9 stream: identical ``www.example.com A`` UDP queries, fast
    mode (unpaced open loop), one instance with six queriers."""

    name = "fig9-udp-fast"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        record = QueryRecord(time=0.0, src="172.16.0.1",
                             qname="www.example.com.")
        self.records = 300 if tiny else 10_000
        self.ldpb = trace_to_binary(Trace([record] * self.records,
                                          name="fig9"))

    def build(self, trace):
        world = authoritative_world(
            [wildcard_zone()], mode="direct", client_instances=1,
            queriers_per_instance=6, seed=self.seed)
        world.engine.config.fast = True
        world.engine.config.reader_cost = GENERATOR_COST
        return world


class BRootWhatIfTcp(_Authoritative):
    """§5.2 what-if: a B-Root analogue mutated to all-TCP with DO set
    on every query, replayed time-faithfully (timed open loop on the
    trace schedule) against the wildcard root zone."""

    name = "broot-whatif-tcp"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        # The server's zone is fixed; the seed draws the traffic.
        internet = root_zone_world(tlds=6, slds_per_tld=8, seed=3)
        self.zone = wildcard_root_zone(internet)
        duration, rate = (1.0, 600.0) if tiny else (10.0, 3000.0)
        self.window = 0.5 if tiny else 2.5
        trace = generate_broot_trace(internet, BRootParams(
            duration=duration, mean_rate=rate, clients=3000,
            seed=seed))
        self.ldpb = trace_to_binary(trace.sorted())
        self.records = len(trace)

    def ingest(self):
        # The timed stage mutates the whole generated trace, so it is
        # long enough to time on its own; the replay takes a window.
        return TracePipeline.from_binary(self.ldpb, jobs=1).pipe(
            SetProtocol("tcp"), SetDoFraction(1.0)).to_binary()

    def replay_input(self, ingested):
        trace = TracePipeline.from_binary(ingested).collect()
        return Trace([r for r in trace.records if r.time < self.window],
                     name=trace.name)

    def build(self, trace):
        return authoritative_world([self.zone], mode="direct",
                                   seed=self.seed)


class Rec17RecursiveLru(Workload):
    """Rec-17-style stub queries (Zipf popularity, bursty) at a
    recursive whose cache holds about a quarter of the working set, over
    zones rebuilt from the trace and served by the meta-DNS-server."""

    name = "rec17-recursive-lru"
    CACHE_ENTRIES = 400

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.internet = ModelInternet(tlds=6, slds_per_tld=16, seed=41)
        duration, rate = (5.0, 30.0) if tiny else (60.0, 100.0)
        trace = generate_recursive_trace(self.internet, RecursiveParams(
            duration=duration, mean_rate=rate, clients=91, seed=seed))
        self.ldpb = trace_to_binary(trace)
        self.records = len(trace)

    def build(self, trace):
        # Zone construction from the trace itself (§2.3) is set-up: it
        # is what stands between a captured trace and a replayable world.
        internet = self.internet
        capture = zonegen.harvest_trace(internet, trace)
        built = zonegen.construct_zones(
            capture.responses, prober=zonegen.make_prober(internet),
            root_hints=internet.root_hints())
        return RecursiveExperiment(
            built.zones, internet.root_hints(),
            ExperimentConfig(
                rtt=0.004,
                cache=CacheConfig(max_entries=self.CACHE_ENTRIES),
                replay=ReplayConfig(client_instances=1,
                                    queriers_per_instance=2,
                                    mode="direct", seed=self.seed)))

    def observe(self, world, report):
        resolver = world.resolver
        cache = resolver.cache
        counts = {**_count_sim(world.sim),
                  **_count_answer_cache(world.meta.server.answer_cache),
                  **_count_queriers(report.queriers),
                  "upstream": resolver.stats["upstream_queries"],
                  "cache_answers": resolver.stats["cache_answers"],
                  "cache_lookups": cache.lookups,
                  "cache_hits": cache.hits,
                  "cache_misses": cache.misses,
                  "cache_evictions": cache.evictions}
        return resolver.stats["client_queries"], counts


class BRootLiveUdp(Workload):
    """A UDP-only B-Root analogue through the live backend in fast mode
    over real loopback sockets: one instance, two queriers (two client
    sockets), server and clients on one event loop."""

    name = "broot-live-udp"
    sim = False

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        internet = root_zone_world(tlds=4, slds_per_tld=4, seed=3)
        self.zone = wildcard_root_zone(internet)
        duration, rate = (0.5, 400.0) if tiny else (4.0, 1000.0)
        trace = generate_broot_trace(internet, BRootParams(
            duration=duration, mean_rate=rate, clients=500,
            tcp_fraction=0.0, seed=seed))
        self.ldpb = trace_to_binary(trace.sorted())
        self.records = len(trace)

    def build(self, trace):
        return LiveBackend([self.zone], config=ReplayConfig(
            backend="live", fast=True, client_instances=1,
            queriers_per_instance=2, seed=self.seed,
            resilience=ResilienceConfig(timeout=2.0, max_retries=3,
                                        backoff=2.0),
            live=LiveReplayConfig(query_timeout=10.0,
                                  run_deadline=120.0)))

    def replay(self, world, trace):
        return world.run(trace)

    def observe(self, world, report):
        counts = {**_count_answer_cache(world.responder.answer_cache),
                  **_count_queriers(report.queriers),
                  "socket_errors": (world.server.socket_errors
                                    + sum(q.socket_errors
                                          for q in world.queriers)),
                  "deadline_hit": int(world.deadline_hit)}
        return world.responder.queries_handled, counts

    def close(self, world) -> None:
        world.close()


WORKLOADS = {cls.name: cls for cls in (Fig9UdpFast, BRootWhatIfTcp,
                                       Rec17RecursiveLru, BRootLiveUdp)}


def _passes(fn, count: int):
    for _ in range(count - 1):
        fn()
    return fn()


def run_rep(workload: Workload, tracer=None) -> Rep:
    """One repetition: ingest, setup, replay, checks.  With *tracer*
    (an entered :class:`~spans.SpanTracer`) the replay is its root."""
    passes = -(-INGEST_RECORDS // workload.records)
    ingested, ingest = _phase(_passes, workload.ingest, passes)
    trace = workload.replay_input(ingested)
    world, setup = _phase(workload.build, trace)
    try:
        if tracer is not None:
            report, replay = _phase(tracer.root, workload.replay, world,
                                    trace)
        else:
            report, replay = _phase(workload.replay, world, trace)
        handled, counts = workload.observe(world, report)
    finally:
        workload.close(world)
    rep = Rep(ingest=ingest, ingest_records=workload.records * passes,
              setup=setup, replay=replay,
              attempted=len(trace),
              answered=sum(1 for r in report.results if r.answered),
              digest=report_digest(report) if workload.sim else None,
              counts=counts,
              spans=tracer.summary() if tracer is not None else None)
    rep.problems = check(report, rep, handled)
    return rep


def check(report, rep: Rep, handled: int) -> list[str]:
    """Correctness of one repetition's outputs; empty when all hold."""
    problems = []
    if len(report.results) != rep.attempted:
        problems.append(f"{len(report.results)} results for "
                        f"{rep.attempted} queries")
    if rep.answered != rep.attempted:
        problems.append(f"answered {rep.answered} of {rep.attempted}")
    attempts = sum(r.attempts for r in report.results)
    if handled != attempts:
        problems.append(f"server handled {handled} queries, clients sent "
                        f"{attempts}")
    bad = sum(1 for r in report.results
              if r.answered and r.rcode not in ANSWERED_RCODES)
    if bad:
        problems.append(f"{bad} answers with an rcode other than "
                        "NOERROR/NXDOMAIN")
    counts = rep.counts
    if counts.get("leaked"):
        problems.append(f"{counts['leaked']} packets leaked")
    if "cache_lookups" in counts and (counts["cache_hits"]
                                      + counts["cache_misses"]
                                      != counts["cache_lookups"]):
        problems.append("resolver cache hits + misses != lookups")
    if counts.get("socket_errors") or counts.get("deadline_hit"):
        problems.append(f"{counts['socket_errors']} socket errors, "
                        f"deadline hit {counts['deadline_hit']}")
    return problems
