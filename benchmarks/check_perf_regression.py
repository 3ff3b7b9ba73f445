"""CI gate: one ``ldpbench`` run against ``benchmarks/baseline.json``.

Usage, from the repository root::

    python3 ldpbench/run.py --seconds 10 | tee ldpbench.txt
    python benchmarks/check_perf_regression.py ldpbench.txt

The last line of ``ldpbench.txt`` is ldpbench's JSON verdict, whose
``metrics`` map is keyed ``workload/metric``.  ``baseline.json`` is a
flat ``{"workload/metric": value}`` map of the pairs worth gating.  The
direction (``better``) and tolerance (``bound``) of each metric come
from the ``end_to_end`` list of ``BENCHMARK.json``, which this script
only reads.  The gate fails (exit 1) when

* the run reports ``correct: false`` or ``failed > 0``;
* a baselined pair is missing from the run;
* a baseline key names a metric ``BENCHMARK.json`` does not define;
* a value is worse than its baseline by more than ``bound``: below
  ``(1 - bound) * baseline`` when higher is better, above
  ``(1 + bound) * baseline`` when lower is better.

ldpbench scales every time by an interpreter calibration sampled in
the same run, so the numbers carry across hosts that run the Python
minor version the baseline was recorded on.  Improvements print but
never fail; EXPERIMENTS.md ("CI bench gate") says how a baseline is
recorded and ratcheted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BASELINE_FILE = BENCH_DIR / "baseline.json"
SPEC_FILE = BENCH_DIR.parent / "BENCHMARK.json"


def end_to_end_metrics() -> dict[str, dict]:
    """BENCHMARK.json's end-to-end metrics, by name."""
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def last_json_line(path: str | Path) -> dict:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty; expected ldpbench output")
    return json.loads(lines[-1])


def compare(result: dict, baseline: dict[str, float],
            metrics: dict[str, dict]) -> tuple[list[str], list[str]]:
    """Check one ldpbench verdict; return ``(failures, passes)``, one
    line per check."""
    failures: list[str] = []
    passes: list[str] = []
    if result.get("correct") is not True:
        failures.append("run reported correct: false")
    if result.get("failed", 0) > 0:
        failures.append(f"run reported failed: {result['failed']}")
    measured = result.get("metrics", {})
    for key, base in sorted(baseline.items()):
        metric = metrics.get(key.rpartition("/")[2])
        if metric is None:
            failures.append(f"{key}: BENCHMARK.json defines no "
                            f"end-to-end metric by that name")
            continue
        if key not in measured:
            failures.append(f"{key}: missing from the run")
            continue
        value = measured[key]["value"]
        if metric["better"] == "higher":
            limit = base * (1 - metric["bound"])
            worse = value < limit
        else:
            limit = base * (1 + metric["bound"])
            worse = value > limit
        line = (f"{key}: {value:.6g} vs baseline {base:.6g} "
                f"(limit {limit:.6g}, {metric['better']} is better)")
        if worse:
            failures.append(f"REGRESSION {line}")
        else:
            passes.append(f"ok {line}")
    return failures, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result",
                        help="ldpbench output (last line: JSON verdict)")
    args = parser.parse_args(argv)
    try:
        result = last_json_line(args.result)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 1
    baseline = json.loads(BASELINE_FILE.read_text(encoding="utf-8"))
    failures, passes = compare(result, baseline, end_to_end_metrics())
    for line in passes + failures:
        print(line)
    if failures:
        print(f"\nbench gate failed: {len(failures)} check(s) "
              f"(see EXPERIMENTS.md, 'CI bench gate')")
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
