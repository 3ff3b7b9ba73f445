"""LDplayer replay benchmark: one command, four workloads.

Run from the repository root::

    python3 ldpbench/run.py                       # all four workloads
    python3 ldpbench/run.py --workload fig9-udp-fast --seed 3 \\
        --seconds 20 --trace 0

With ``--trace 0`` a run reports the end-to-end metrics; with
``--trace 1`` it first repeats the workload untraced, then traced, and
reports the per-layer metrics (see README.md).  Every run checks the
outputs of every repetition.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SIZES = ("full", "tiny")
WORKLOAD_NAMES = ("fig9-udp-fast", "broot-whatif-tcp",
                  "rec17-recursive-lru", "broot-live-udp")

# name -> unit, for the end-to-end metrics (tracing off).
END_TO_END = {
    "replay_qps": "queries/s",
    "cpu_us_per_query": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "trace_records_per_s": "records/s",
}

# The counters that must not differ between a traced and an untraced
# repetition of a sim workload (tracing may cost time, never behaviour).
DETERMINISTIC = ("events", "transmits", "upstream")


def host_facts() -> dict:
    from ldpbench.workloads import calibrate
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "calibration_mops": round(calibrate(), 3)}


def _repeat(workload, seconds: float, tracer=None) -> list:
    """Repeat the workload until *seconds* have passed (at least once)."""
    from ldpbench.workloads import run_rep
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        reps.append(run_rep(workload, tracer))
    return reps


def _per_rep(reps, fn) -> float:
    return statistics.median(fn(rep) for rep in reps)


def end_to_end(reps) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics, and a print-ready line of the unscaled
    figures.  Each time is scaled to the reference interpreter speed by
    the speed sampled during its own phase, then the median over
    repetitions is taken."""
    def medians(scaled) -> dict[str, float]:
        return {
            "replay_qps": _per_rep(
                reps, lambda r: r.answered / scaled(r.replay, r.replay.wall)),
            "cpu_us_per_query": _per_rep(
                reps,
                lambda r: scaled(r.replay, r.replay.cpu) / r.answered * 1e6),
            "setup_s": _per_rep(reps, lambda r: scaled(r.setup, r.setup.wall)),
            "trace_records_per_s": _per_rep(
                reps,
                lambda r: r.ingest_records / scaled(r.ingest, r.ingest.wall)),
        }
    values = medians(lambda phase, seconds: phase.scaled(seconds))
    values["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = medians(lambda phase, seconds: seconds)
    raw["speed_mops"] = _per_rep(reps, lambda r: r.replay.speed)
    return values, ["unscaled medians: " + ", ".join(
        f"{key}={value:.6g}" for key, value in raw.items())]


def consistency(workload, reps) -> list[str]:
    """Sim repetitions of one input must be indistinguishable."""
    if not workload.sim:
        return []
    problems = []
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        problems.append(f"repetitions disagree on the report digest: "
                        f"{sorted(digests)}")
    for key in DETERMINISTIC:
        values = {rep.counts.get(key) for rep in reps}
        if len(values) != 1:
            problems.append(f"repetitions disagree on {key}: "
                            f"{sorted(values)}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> tuple[dict, list[str], list[str]]:
    """Run one workload; return (result object, problems, report lines)."""
    from ldpbench.layers import PER_LAYER, layer_metrics
    from ldpbench.spans import SpanTracer
    from ldpbench.workloads import WORKLOADS
    workload = WORKLOADS[name](seed, tiny=tiny)
    if not trace:
        reps = _repeat(workload, seconds)
        values, lines = end_to_end(reps)
        units = END_TO_END
    else:
        # A third of the time untraced, for the overhead baseline and the
        # determinism comparison; the rest traced.
        reps = _repeat(workload, seconds / 3)
        with SpanTracer() as tracer:
            traced = _repeat(workload, seconds * 2 / 3, tracer)
        values, lines = layer_metrics(workload, reps, traced)
        units = PER_LAYER
        reps = reps + traced
    problems = [f"rep {i}: {p}" for i, rep in enumerate(reps)
                for p in rep.problems]
    problems += consistency(workload, reps)
    if workload.sim:
        digests = " ".join(sorted({rep.digest for rep in reps}))
        lines.append(f"digest: {digests} ({len(reps)} repetitions)")
    lines.append(f"repetitions: {len(reps)}")
    attempted = sum(rep.attempted for rep in reps)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(rep.answered for rep in reps),
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }
    return result, problems, lines


def _print_result(name: str, result: dict, problems: list[str],
                  lines: list[str], host: dict) -> None:
    print(f"== {name}")
    for line in lines:
        print(line)
    for key, metric in result["metrics"].items():
        print(f"{key:<40} {metric['value']:>14.4f} {metric['unit']}")
    print(f"host: {json.dumps(host, sort_keys=True)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size],
            stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        try:
            result = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"CHECK FAILED: {name} printed no result")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' inputs are for the smoke test")
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"ldpbench: no src/repro under {CHECKOUT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    host = host_facts()
    result, problems, lines = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.size == "tiny")
    _print_result(args.workload, result, problems, lines, host)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
