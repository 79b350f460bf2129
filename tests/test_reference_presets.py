"""The benchmark's output gates, checked on the same inputs.

``perfbench/reference.json`` holds every preset the benchmark regenerates, at
its default grid, and the benchmark fails a run whose cell moves by more than
1e-10 from it.  Its Monte Carlo workload fails a run whose default protocol
has an analytic value more than 1e-12 from ``exact_psucc`` of its own tree.
Checking the same bounds here catches such a move (say, an optimizer whose
refinement lands elsewhere on a flat top) before a benchmark run does.
"""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from dampdisc.discrimination import exact_psucc
from dampdisc.protocols import MC_STRATEGIES, build_protocol
from dampdisc.strategies import ChannelPair
from dampdisc.sweep import PRESETS, run_sweep

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
REFERENCE_TOL = 1e-10
# the Monte Carlo pool of perfbench/workloads.py: its seed, size and exact-value gate
MC_POOL_SEED = 2009_01000
MC_POOL_SIZE = 24
MC_EXACT_TOL = 1e-12
HALF_PI = math.pi / 2

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


def mc_pool() -> list[ChannelPair]:
    """The benchmark's Monte Carlo channel pairs, drawn again from its seed."""
    rng = random.Random(MC_POOL_SEED)
    return [ChannelPair(rng.uniform(0.0, HALF_PI), rng.uniform(0.0, HALF_PI)) for _ in range(MC_POOL_SIZE)]


@pytest.mark.parametrize("strategy", MC_STRATEGIES)
def test_default_protocol_is_exact_on_the_benchmark_pool(strategy):
    for pair in mc_pool():
        protocol = build_protocol(strategy, pair, {})
        assert abs(protocol.analytic_psucc - exact_psucc(protocol)) <= MC_EXACT_TOL, pair
