"""Smoke tests of the command-line scripts in scripts/."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import package_env

from dampdisc.sweep import PRESETS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=package_env(),
    )


def test_regen_figure_data_writes_every_preset_byte_identically(tmp_path):
    outdirs = [tmp_path / "first", tmp_path / "second"]
    for outdir in outdirs:
        proc = run_script("regen_figure_data.py", "--grid", "3", "--outdir", str(outdir))
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in outdirs[0].iterdir())
    assert names == sorted(f"{name}.csv" for name in PRESETS)
    assert len(names) == 11
    for name in names:
        assert (outdirs[0] / name).read_bytes() == (outdirs[1] / name).read_bytes(), name


@pytest.mark.parametrize("grid", ["0", "1"])
def test_regen_figure_data_rejects_a_grid_below_two(tmp_path, grid):
    proc = run_script("regen_figure_data.py", "--grid", grid, "--outdir", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr == f"usage error: grid_n must be an integer >= 2, got {grid}\n"
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_mc_check_passes_for_every_simulable_strategy():
    proc = run_script("mc_check.py", "--trials", "4000")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
