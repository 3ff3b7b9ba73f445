"""The CI bench gate (benchmarks/check_perf_regression.py).

The gate compares one ldpbench verdict against benchmarks/baseline.json
with the direction and bound BENCHMARK.json gives each end-to-end
metric.  These cases run its compare function on hand-made dicts, and
check that the committed baseline only names pairs ldpbench reports.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_perf_regression", ROOT / "benchmarks" / "check_perf_regression.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

METRICS = gate.end_to_end_metrics()
BASELINE = {"fig9-udp-fast/replay_qps": 1000.0,
            "fig9-udp-fast/cpu_us_per_query": 40.0}
SUCCESSORS = ("fig9-udp-fast/replay_qps", "fig9-udp-fast/cpu_us_per_query",
              "broot-whatif-tcp/trace_records_per_s",
              "broot-live-udp/replay_qps",
              "rec17-recursive-lru/replay_qps",
              "rec17-recursive-lru/cpu_us_per_query")


def run(qps=1000.0, cpu_us=40.0, correct=True, failed=0) -> dict:
    metrics = {"fig9-udp-fast/replay_qps": qps,
               "fig9-udp-fast/cpu_us_per_query": cpu_us}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {key: {"value": value, "unit": "x"}
                        for key, value in metrics.items()}}


def failures(result, baseline=BASELINE) -> list[str]:
    return gate.compare(result, baseline, METRICS)[0]


def test_matching_run_passes():
    fails, passes = gate.compare(run(), BASELINE, METRICS)
    assert fails == []
    assert len(passes) == 2


@pytest.mark.parametrize("cpu_us, ok", [(52.0, False), (30.0, True),
                                        (49.0, True)])
def test_lower_is_better_metric(cpu_us, ok):
    # cpu_us_per_query: bound 0.25, lower is better.  Up 30% fails,
    # up 22.5% is within the bound, and an improvement passes.
    assert (failures(run(cpu_us=cpu_us)) == []) is ok


@pytest.mark.parametrize("qps, ok", [(700.0, False), (800.0, True),
                                     (1500.0, True)])
def test_higher_is_better_metric(qps, ok):
    # replay_qps: bound 0.25, higher is better.
    assert (failures(run(qps=qps)) == []) is ok


def test_missing_pair_fails():
    result = run()
    del result["metrics"]["fig9-udp-fast/cpu_us_per_query"]
    assert failures(result) == [
        "fig9-udp-fast/cpu_us_per_query: missing from the run"]


def test_baseline_key_unknown_to_benchmark_json_fails():
    # Even when the run reports the pair, a metric BENCHMARK.json does
    # not define has no direction or bound to gate with.
    result = run()
    result["metrics"]["fig9-udp-fast/normalized_qps"] = {"value": 900.0,
                                                         "unit": "x"}
    baseline = {**BASELINE, "fig9-udp-fast/normalized_qps": 850.0}
    assert failures(result, baseline) == [
        "fig9-udp-fast/normalized_qps: BENCHMARK.json defines no "
        "end-to-end metric by that name"]


def test_incorrect_run_fails():
    assert failures(run(correct=False)) == ["run reported correct: false"]


def test_failed_queries_fail():
    assert failures(run(failed=3)) == ["run reported failed: 3"]


def test_committed_baseline_names_known_pairs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {workload["name"] for workload in spec["workloads"]}
    baseline = json.loads(gate.BASELINE_FILE.read_text())
    for key, value in baseline.items():
        workload, _, metric = key.partition("/")
        assert workload in workloads, key
        assert metric in METRICS, key
        assert value > 0, key
    assert set(SUCCESSORS) <= set(baseline)


def test_main_reads_the_last_line(tmp_path, capsys):
    out = tmp_path / "ldpbench.txt"
    baseline = json.loads(gate.BASELINE_FILE.read_text())
    verdict = {"correct": True, "attempted": 1, "failed": 0,
               "metrics": {key: {"value": value, "unit": "x"}
                           for key, value in baseline.items()}}
    out.write_text("== fig9-udp-fast\nreplay_qps 1\n"
                   + json.dumps(verdict) + "\n")
    assert gate.main([str(out)]) == 0
    worse = dict(verdict, correct=False)
    out.write_text(json.dumps(worse) + "\n")
    assert gate.main([str(out)]) == 1
    assert "bench gate failed" in capsys.readouterr().out
