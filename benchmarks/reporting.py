"""Benchmark reporting: paper-vs-measured rows, persisted to disk.

pytest captures stdout, so each benchmark also writes its rows to
``benchmarks/_results/<name>.txt`` — the files EXPERIMENTS.md is
compiled from.

Benchmarks that run with ``observe=True`` additionally persist their
metrics snapshot (see docs/OBSERVABILITY.md) into the repo-root
``BENCH_obs.json`` via :func:`record_obs`, one key per benchmark, so the
simulated behaviour of each benchmark is tracked across PRs.

Wall-clock speed is not recorded here: ``ldpbench/run.py`` measures it,
scaled by an interpreter calibration, and
``benchmarks/check_perf_regression.py`` gates that output against
``benchmarks/baseline.json`` (EXPERIMENTS.md, "CI bench gate").
"""

from __future__ import annotations

from pathlib import Path

from repro.obs import merge_into_file

RESULTS_DIR = Path(__file__).parent / "_results"
OBS_FILE = Path(__file__).parent.parent / "BENCH_obs.json"


def record(name: str, lines: list[str]) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    print(f"\n== {name} ==")
    print(text)


def record_obs(name: str, snapshot: dict) -> None:
    """Merge one benchmark's observability snapshot into BENCH_obs.json."""
    merge_into_file(OBS_FILE, name, snapshot)
    print(f"\n== {name}: snapshot -> {OBS_FILE.name} ==")
