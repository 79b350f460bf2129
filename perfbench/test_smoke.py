"""Smoke test of the benchmark itself, at the smallest sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Takes about a minute: the backward workload sweeps its 2x2 fwd-bwd-diff
sub-grid (about 5 s a cell) in each of its runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[-2])["env"]
    assert {"nproc", "python", "numpy", "seed", "blas_threads"} <= set(env)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        assert result["metrics"]["trace_missed_calls"]["value"] == 0, done.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "points", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_rebinds_every_reference_and_restores_them():
    from dampdisc import strategies, sweep
    from tracer import Tracer

    original = strategies.fwd_bwd_difference
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = strategies.fwd_bwd_difference
        assert wrapped is not original
        assert sweep.fwd_bwd_difference is wrapped
        assert sweep.PRESETS["fig15"].cell is wrapped
    finally:
        tracer.uninstall()
    assert sweep.PRESETS["fig15"].cell is original
    assert sweep.fwd_bwd_difference is original


def test_tracer_reports_a_deleted_function_as_absent(monkeypatch):
    from dampdisc import discrimination
    from tracer import Tracer

    monkeypatch.delattr(discrimination, "maximize_povm_2x2")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["discrimination.maximize_povm_2x2"]
    assert tracer.metrics()["discrimination.maximize_povm_2x2.calls"]["value"] == 0
