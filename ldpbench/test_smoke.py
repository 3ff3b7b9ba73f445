"""Smoke test of the benchmark on tiny inputs of all four workloads.

Run from the repository root::

    python3 -m pytest ldpbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ldpbench.layers import PER_LAYER  # noqa: E402
from ldpbench.run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from ldpbench.spans import SpanTracer  # noqa: E402
from ldpbench.workloads import WORKLOADS, run_rep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "ldpbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def test_spec_names_what_the_benchmark_reports():
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_reported(workload, trace):
    proc = _run("--workload", workload, "--size", "tiny", "--seconds", "0",
                "--seed", "7", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_layer_self_times_fit_in_the_root_span(workload):
    with SpanTracer() as tracer:
        rep = run_rep(WORKLOADS[workload](7, tiny=True), tracer)
    summary = rep.spans
    assert not rep.problems
    assert summary.inside, "no layer was traced inside the run"
    assert all(s.self_time >= 0 for s in summary.inside.values())
    layers = sum(summary.layer_self().values())
    assert layers <= summary.root_wall
    assert summary.root_self == pytest.approx(summary.root_wall - layers,
                                              abs=1e-6)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "ldpbench", tmp_path / "ldpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", WORKLOAD_NAMES[0], "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
