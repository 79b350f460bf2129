"""The default-grid presets against the reference datasets of the benchmark.

``perfbench/reference.json`` holds every preset the benchmark regenerates, at
its default grid, and the benchmark fails a run whose cell moves by more than
1e-10 from it.  Checking the same bound here catches such a move (say, an
optimizer whose refinement lands elsewhere on a flat top) before a benchmark
run does.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dampdisc.sweep import PRESETS, run_sweep

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
REFERENCE_TOL = 1e-10

with open(REFERENCE_PATH) as fh:
    REFERENCE = json.load(fh)["presets"]


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_default_grid_preset_matches_reference(name):
    preset = PRESETS[name]
    assert REFERENCE[name]["grid_n"] == preset.grid_n
    grid = run_sweep(preset.config())
    want = np.asarray(REFERENCE[name]["values"], dtype=float)
    assert grid.values.size == want.size
    assert np.abs(grid.values.ravel() - want).max() <= REFERENCE_TOL
