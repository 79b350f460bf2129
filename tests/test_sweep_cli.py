"""Sweep configuration, figure presets, serialization and the CLI surface."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import package_env

from dampdisc import cli, strategies, sweep
from dampdisc.discrimination import Protocol
from dampdisc.protocols import MC_STRATEGIES
from dampdisc.strategies import (
    ChannelPair,
    adaptive_forward_optimal,
    one_shot_optimal,
    one_shot_psucc,
    side_ent_optimal,
    side_ent_psucc,
    two_shot_product_optimal,
)
from dampdisc.sweep import (
    GRID_AXES,
    POLAR_AXES,
    POLAR_CURVE_ANGLES,
    PRESETS,
    STRATEGIES,
    STRATEGY_TABLE,
    ConsistencyError,
    SweepConfig,
    SweepGrid,
    emit,
    format_csv,
    format_json,
    grid_from_json,
    run_mc,
    run_point,
    run_sweep,
)

HALF_PI = math.pi / 2
CLI = [sys.executable, "-m", "dampdisc"]

# the per-pair definition of each preset whose grid function is batched
BATCHED_PRESET_DEFINITIONS = {
    "fig3": lambda pair: side_ent_optimal(pair).psucc - side_ent_psucc(pair, 0.0),
    "fig4new": lambda pair: side_ent_optimal(pair).psucc,
    "fig4": lambda pair: side_ent_optimal(pair).params["y"],
    "fig7": lambda pair: two_shot_product_optimal(pair).psucc - one_shot_optimal(pair).psucc,
    "fig8": lambda pair: two_shot_product_optimal(pair).params["x"],
    "fig10": lambda pair: two_shot_product_optimal(pair).psucc - adaptive_forward_optimal(pair).psucc,
    "fig11": lambda pair: adaptive_forward_optimal(pair).psucc - one_shot_optimal(pair).psucc,
}


def run_cli(*args: str):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=120, env=package_env())


def readme_rows(heading: str) -> list[list[str]]:
    """The cells of each row of the README table under ``heading`` whose first cell is code."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


class TestSweepConfig:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            SweepConfig(strategy="helstrom")

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="grid_n"):
            SweepConfig(strategy="one-shot", grid_n=1)

    def test_rejects_range_outside_quarter_turn(self):
        with pytest.raises(ValueError, match="eta0_range"):
            SweepConfig(strategy="one-shot", eta0_range=(0.0, 2.0))
        with pytest.raises(ValueError, match="eta1_range"):
            SweepConfig(strategy="one-shot", eta1_range=(1.0, 0.5))

    def test_rejects_bad_format_and_trials(self):
        with pytest.raises(ValueError, match="format"):
            SweepConfig(strategy="one-shot", format="xml")
        with pytest.raises(ValueError, match="trials"):
            SweepConfig(strategy="one-shot", trials=0)

    def test_rejects_bad_fixed_parameters(self):
        with pytest.raises(ValueError, match="unknown fixed"):
            SweepConfig(strategy="one-shot", fixed={"z": 1.0})
        with pytest.raises(ValueError, match="x must lie"):
            SweepConfig(strategy="one-shot", fixed={"x": 1.5})
        with pytest.raises(ValueError, match="variant"):
            SweepConfig(strategy="two-shot-entangled", fixed={"variant": "both"})

    def test_rejects_out_of_range_angles(self):
        with pytest.raises(ValueError, match="eta0"):
            SweepConfig(strategy="one-shot", eta0=3.2, eta1=0.1)

    def test_pair_requires_both_angles(self):
        with pytest.raises(ValueError, match="eta0"):
            SweepConfig(strategy="one-shot", eta0=0.3).pair()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("eta0", "1.2"),
            ("eta0", math.nan),
            ("eta1", True),
            ("eta0_range", (0.0, math.inf)),
            ("eta0_range", (0.0, None)),
            ("eta1_range", 5),
            ("eta1_range", (0.1, 0.2, 0.3)),
            ("fixed", 3),
            ("fixed", {"x": "a"}),
            ("fixed", {"alpha": math.nan}),
            ("fixed", {"y": False}),
            ("grid_n", True),
            ("grid_n", 5.0),
            ("trials", 10.5),
            ("trials", True),
            ("seed", "7"),
            ("seed", -1),
            ("output_path", 5),
        ],
    )
    def test_rejects_wrong_types_and_non_finite_values(self, field, value):
        with pytest.raises(ValueError):
            SweepConfig(strategy="adaptive", **{field: value})

    def test_ranges_are_stored_as_float_pairs(self):
        cfg = SweepConfig(strategy="one-shot", eta0_range=[0, 1], eta1_range=(0.5, 1))
        for rng in (cfg.eta0_range, cfg.eta1_range):
            assert type(rng) is tuple
            assert all(type(v) is float for v in rng)
        assert cfg.eta0_range == (0.0, 1.0)

    @pytest.mark.parametrize("preset", ["fig7", "fig2new"])
    def test_rejects_a_strategy_the_preset_does_not_use(self, preset):
        with pytest.raises(ValueError, match=f"preset {preset} is a .* sweep, not 'one-shot'"):
            SweepConfig(strategy="one-shot", preset=preset)

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_preset_alone_resolves_its_config(self, name):
        cfg = SweepConfig(preset=name)
        assert cfg == PRESETS[name].config()
        assert cfg.strategy == PRESETS[name].strategy
        assert cfg.grid_n == PRESETS[name].grid_n
        assert SweepConfig(strategy=cfg.strategy, preset=name) == cfg

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_omitted_grid_is_the_strategy_default(self, strategy):
        assert SweepConfig(strategy=strategy).grid_n == STRATEGY_TABLE[strategy].grid_n

    def test_omitted_preset_grid_is_the_strategy_grid(self):
        strategy_grid = {name: STRATEGY_TABLE[preset.strategy].grid_n for name, preset in PRESETS.items()}
        assert [name for name, preset in PRESETS.items() if preset.grid_n != strategy_grid[name]] == ["fig15"]
        polar = sweep.FigurePreset(id="polar", description="", strategy="polar-curve", cell=None)
        assert polar.grid_n == STRATEGY_TABLE["polar-curve"].grid_n

    @pytest.mark.parametrize("grid_n", [0, 1, None])
    def test_given_grid_is_checked(self, grid_n):
        # None means the default only in FigurePreset.config, never in SweepConfig
        with pytest.raises(ValueError, match="grid_n must be an integer >= 2"):
            SweepConfig(preset="fig7", grid_n=grid_n)
        if grid_n is not None:
            with pytest.raises(ValueError, match="grid_n must be an integer >= 2"):
                PRESETS["fig7"].config(grid_n=grid_n)

    def test_real_fields_store_negative_zero_as_zero(self):
        cfg = SweepConfig(
            strategy="feedback",
            eta0_range=(-0.0, 1.0),
            eta1_range=(-0.0, -0.0),
            fixed={"x": -0.0, "y": -0.0, "alpha": -0.0},
            eta0=-0.0,
            eta1=-0.0,
        )
        reals = [*cfg.eta0_range, *cfg.eta1_range, *cfg.fixed.values(), cfg.eta0, cfg.eta1]
        assert all(type(v) is float and math.copysign(1.0, v) == 1.0 for v in reals)


class TestRunPoint:
    def test_feedback_extreme_pair_is_certain(self):
        report = run_point(SweepConfig(strategy="feedback", eta0=HALF_PI, eta1=0.0))
        assert report.value == pytest.approx(1.0, abs=1e-12)
        assert report.params["x"] == pytest.approx(1.0)
        assert report.params["alpha"] == pytest.approx(math.pi / 4)

    def test_feedback_omitted_x_is_the_optimum_at_the_given_alpha(self):
        # x = 1, the joint optimum's, gives only 0.601002 at this alpha
        cfg = SweepConfig(
            strategy="feedback",
            eta0=1.2853626116987742,
            eta1=0.18476586493855107,
            fixed={"alpha": 1.5201928563490097},
        )
        report = run_point(cfg)
        assert report.value == pytest.approx(0.722642, abs=1e-6)
        assert report.params["x"] == pytest.approx(0.698, abs=1e-3)
        assert report.params["alpha"] == 1.5201928563490097

    def test_identical_channels_are_a_coin_flip(self):
        report = run_point(SweepConfig(strategy="one-shot", eta0=0.3, eta1=0.3))
        assert report.value == pytest.approx(0.5, abs=1e-12)

    def test_two_copy_feedback_point(self):
        report = run_point(SweepConfig(strategy="adaptive-fb", eta0=math.pi / 4, eta1=0.0))
        assert report.value == pytest.approx(0.933013, abs=1e-6)

    def test_one_shot_reports_interior_optimum(self):
        report = run_point(SweepConfig(strategy="one-shot", eta0=HALF_PI, eta1=math.pi / 3))
        assert report.params["x"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert report.value == pytest.approx(0.6443375672974064, abs=1e-9)

    def test_one_shot_fixed_probe_weight(self):
        pair = ChannelPair(1.2, 0.4)
        report = run_point(SweepConfig(strategy="one-shot", eta0=1.2, eta1=0.4, fixed={"x": 0.7}))
        assert report.value == pytest.approx(one_shot_psucc(pair, 0.7), abs=1e-12)
        assert report.params == {"x": 0.7}

    def test_polar_point_matches_closed_radius(self):
        eta1 = 0.9
        x = 0.37
        report = run_point(SweepConfig(strategy="polar-curve", eta1=eta1, fixed={"x": x}))
        expected = 2.0 * math.cos(eta1) * math.sqrt(x * (1.0 - x * math.sin(eta1) ** 2))
        assert report.label == "radius"
        assert report.value == pytest.approx(expected, abs=1e-9)
        assert report.params["theta"] == pytest.approx(math.asin(math.sqrt(x)))

    def test_polar_point_needs_eta1(self):
        with pytest.raises(ValueError, match="eta1"):
            run_point(SweepConfig(strategy="polar-curve"))

    def test_backward_point_runs_its_dominance_check(self):
        report = run_point(
            SweepConfig(strategy="backward", eta0=1.1, eta1=0.5, fixed={"x": 0.6})
        )
        assert report.label == "psucc"
        assert 0.5 <= report.value <= 1.0

    def test_forward_backward_difference_label_and_sign(self):
        report = run_point(SweepConfig(strategy="fwd-bwd-diff", eta0=1.2, eta1=0.4))
        assert report.label == "difference"
        assert report.value <= 1e-9

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: run_point(SweepConfig(strategy="two-shot-entangled", eta0=1.2, eta1=0.4)),
            lambda: run_sweep(SweepConfig(strategy="two-shot-entangled", grid_n=2)),
        ],
        ids=["point", "sweep"],
    )
    def test_entangled_optimum_is_checked_against_the_construction(self, monkeypatch, evaluate):
        # a Kraus construction that disagrees with the batched optimizer must
        # be caught when x is omitted, not only at a fixed x
        real = sweep.two_shot_entangled_psucc
        monkeypatch.setattr(sweep, "two_shot_entangled_psucc", lambda *args: real(*args) + 0.01)
        with pytest.raises(ConsistencyError, match="two-shot entangled optimum"):
            evaluate()

    def test_product_point_reports_measurement_locality(self):
        report = run_point(SweepConfig(strategy="two-shot-product", eta0=0.9, eta1=0.3))
        lines = report.lines()
        assert any("measurement local" in line for line in lines)

    def test_lines_use_twelve_significant_digits(self):
        report = run_point(SweepConfig(strategy="feedback", eta0=HALF_PI, eta1=math.pi / 6))
        value = (1.0 + math.sin(HALF_PI - math.pi / 6)) / 2.0
        assert report.lines()[0] == f"psucc = {value:.12g}"


class TestRunSweep:
    def test_two_by_two_one_shot_corners(self):
        grid = run_sweep(SweepConfig(strategy="one-shot", grid_n=2))
        assert grid.values[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert grid.values[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert grid.values[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert grid.values[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_axes_are_inclusive_linspace(self):
        cfg = SweepConfig(strategy="one-shot", grid_n=3, eta0_range=(0.2, 0.8), eta1_range=(0.1, 0.3))
        grid = run_sweep(cfg)
        assert grid.axes == GRID_AXES
        assert grid.row_values[0] == pytest.approx(0.2)
        assert grid.row_values[-1] == pytest.approx(0.8)
        assert grid.col_values[-1] == pytest.approx(0.3)

    def test_fixed_parameters_respected(self):
        cfg = SweepConfig(
            strategy="one-shot",
            grid_n=2,
            eta0_range=(1.0, 1.5),
            eta1_range=(0.2, 0.6),
            fixed={"x": 1.0},
        )
        grid = run_sweep(cfg)
        for i, e0 in enumerate(grid.row_values):
            for j, e1 in enumerate(grid.col_values):
                expected = one_shot_psucc(ChannelPair(float(e0), float(e1)), 1.0)
                assert grid.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_reruns_are_byte_identical(self):
        cfg = SweepConfig(strategy="adaptive", grid_n=3)
        assert format_csv(run_sweep(cfg)) == format_csv(run_sweep(cfg))
        assert format_json(run_sweep(cfg)) == format_json(run_sweep(cfg))

    @pytest.mark.parametrize(
        "strategy, fixed",
        [(name, {}) for name in STRATEGIES if STRATEGY_TABLE[name].family is None]
        + [
            ("one-shot", {"x": 0.37}),
            ("side-ent", {"y": 0.41}),
            ("feedback", {"x": 0.6, "alpha": 0.5}),
            ("two-shot-entangled", {"variant": "even"}),
            ("two-shot-entangled", {"variant": "even", "x": 0.3}),
            ("two-shot-product", {"x": 0.45}),
            ("adaptive", {"x": 0.8}),
            ("backward", {"x": 0.37}),
            ("sequential", {"x": 0.55}),
        ],
        ids=lambda case: ("-".join(case) or "optimum") if isinstance(case, dict) else case,
    )
    def test_sweep_equals_its_point_queries(self, strategy, fixed):
        # batched or per-pair, a sweep cell is the point query at its pair, bit for bit
        grid = run_sweep(SweepConfig(strategy=strategy, grid_n=3, fixed=fixed))
        for i, e0 in enumerate(grid.row_values):
            for j, e1 in enumerate(grid.col_values):
                cfg = SweepConfig(strategy=strategy, eta0=float(e0), eta1=float(e1), fixed=fixed)
                assert grid.values[i, j] == run_point(cfg).value

    @staticmethod
    def inflate_last_cell(monkeypatch, module) -> None:
        """Raise the forward optimum of the last cell only, as a broken forward search would."""
        real = strategies._adaptive_forward_optimal_batch

        def inflated(pairs):
            x_star, psucc = real(pairs)
            return x_star, np.append(psucc[:-1], psucc[-1] + 1e-3)

        monkeypatch.setattr(module, "_adaptive_forward_optimal_batch", inflated)

    @pytest.mark.parametrize(
        "cfg", [SweepConfig(strategy="fwd-bwd-diff", grid_n=2), PRESETS["fig15"].config(grid_n=2)]
    )
    def test_fwd_bwd_sweep_checks_every_cell(self, monkeypatch, cfg):
        self.inflate_last_cell(monkeypatch, strategies)
        with pytest.raises(ConsistencyError, match="forward optimum exceeded the backward optimum"):
            run_sweep(cfg)

    def test_backward_sweep_checks_every_cell(self, monkeypatch):
        self.inflate_last_cell(monkeypatch, sweep)
        with pytest.raises(ConsistencyError, match="backward optimum fell below the forward optimum"):
            run_sweep(SweepConfig(strategy="backward", grid_n=2))

    def test_metadata_records_strategy_and_version(self):
        grid = run_sweep(SweepConfig(strategy="sequential", grid_n=2, fixed={"x": 0.5}))
        assert grid.metadata["strategy"] == "sequential"
        assert grid.metadata["fixed"] == {"x": 0.5}
        assert "version" in grid.metadata


class TestPresets:
    def test_preset_ids(self):
        assert set(PRESETS) == {
            "fig2new", "fig3", "fig4new", "fig4", "fig6", "fig7",
            "fig8", "fig10", "fig11", "fig13", "fig15",
        }
        for name, preset in PRESETS.items():
            assert preset.id == name
            assert preset.strategy in STRATEGIES

    def test_feedback_gain_nonnegative_and_zero_on_diagonal(self):
        grid = run_sweep(PRESETS["fig6"].config(grid_n=5))
        assert grid.values.min() >= -1e-9
        assert np.abs(np.diagonal(grid.values)).max() <= 1e-9

    def test_collective_gain_nonnegative(self):
        grid = run_sweep(PRESETS["fig7"].config(grid_n=5))
        assert grid.values.min() >= -1e-9

    def test_collective_probe_weight_range_and_projective_region(self):
        grid = run_sweep(PRESETS["fig8"].config(grid_n=5))
        assert grid.values.min() >= 0.5 - 1e-9
        assert grid.values.max() <= 1.0 + 1e-12
        # interior optima (x* < 1) appear even at gamma ~ 1.3 for lopsided
        # pairs, so only the strongly damping region is pinned to x* = 1
        for i, e0 in enumerate(grid.row_values):
            for j, e1 in enumerate(grid.col_values):
                gamma = math.cos(float(e0)) + math.cos(float(e1))
                if gamma >= 1.5:
                    assert grid.values[i, j] == pytest.approx(1.0, abs=1e-9)

    def test_collective_vs_adaptive_gap_small_and_nonnegative(self):
        grid = run_sweep(PRESETS["fig10"].config(grid_n=4))
        assert grid.values.min() >= -1e-9
        assert grid.values.max() <= 0.01 + 1e-9

    def test_adaptive_gain_nonnegative(self):
        grid = run_sweep(PRESETS["fig11"].config(grid_n=4))
        assert grid.values.min() >= -1e-9

    def test_second_copy_feedback_gain_nonnegative_zero_diagonal(self):
        grid = run_sweep(PRESETS["fig13"].config(grid_n=4))
        assert grid.values.min() >= -1e-9
        assert np.abs(np.diagonal(grid.values)).max() <= 1e-9

    def test_second_copy_feedback_gain_matches_the_constructions(self):
        grid = run_sweep(PRESETS["fig13"].config())
        assert grid.values.shape == (25, 25)
        for i, e0 in enumerate(grid.row_values):
            for j, e1 in enumerate(grid.col_values):
                pair = ChannelPair(float(e0), float(e1))
                one_copy = strategies.feedback_psucc(pair, 1.0, math.pi / 4)
                assert abs(grid.values[i, j] - (strategies.adaptive_feedback_psucc(pair) - one_copy)) <= 1e-12

    def test_reference_weight_zero_iff_strong_damping(self):
        grid = run_sweep(PRESETS["fig4"].config(grid_n=5))
        for i, e0 in enumerate(grid.row_values):
            for j, e1 in enumerate(grid.col_values):
                gamma = math.cos(float(e0)) + math.cos(float(e1))
                if gamma >= 1.0:
                    assert grid.values[i, j] == 0.0
                else:
                    # approaches 1/2 only in the fully damping corner gamma -> 0
                    assert 0.0 < grid.values[i, j] <= 0.5
                    if gamma > 1e-12:
                        assert grid.values[i, j] < 0.5

    def test_side_gain_and_optimum_presets(self):
        gain = run_sweep(PRESETS["fig3"].config(grid_n=4))
        best = run_sweep(PRESETS["fig4new"].config(grid_n=4))
        assert gain.values.min() >= -1e-9
        assert best.values.min() >= 0.5 - 1e-9
        assert best.values.max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("name", sorted(BATCHED_PRESET_DEFINITIONS))
    def test_batched_preset_matches_its_per_pair_definition(self, name):
        grid = run_sweep(PRESETS[name].config(grid_n=7))
        for i, e0 in enumerate(grid.row_values):
            for j, e1 in enumerate(grid.col_values):
                expected = BATCHED_PRESET_DEFINITIONS[name](ChannelPair(float(e0), float(e1)))
                assert abs(grid.values[i, j] - expected) <= 1e-12

    def test_forward_backward_preset_cell_matches_sign_convention(self):
        (value,) = PRESETS["fig15"].cell(np.array([1.1]), np.array([0.5]))
        assert value <= 1e-9

    def test_polar_preset_family(self):
        family = run_sweep(PRESETS["fig2new"].config(grid_n=7))
        assert family.axes == POLAR_AXES
        assert tuple(family.row_values) == POLAR_CURVE_ANGLES
        assert family.col_values[0] == 0.0
        assert family.col_values[-1] == pytest.approx(HALF_PI)
        # theta = pi/2 sends the probe weight to 1: radius = 2 cos^2(eta1)
        for row, eta1 in zip(family.values, family.row_values):
            assert row[0] == pytest.approx(0.0, abs=1e-12)
            assert row[-1] == pytest.approx(2.0 * math.cos(eta1) ** 2, abs=1e-9)

    def test_polar_sweep_without_grid_matches_the_cli(self):
        grid = run_sweep(SweepConfig(strategy="polar-curve", eta1=0.5))
        assert grid.values.shape == (1, 91)
        proc = run_cli("polar-curve", "--eta1", "0.5", "--eta0-range", "0", repr(HALF_PI), "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == format_json(grid)

    def test_readme_table_matches_the_presets(self):
        rows = readme_rows("### Figure presets")
        assert [name.strip("`") for name, *_ in rows] == list(PRESETS)
        for name, _, grid_cell in rows:
            cfg = SweepConfig(preset=name.strip("`"))
            polar = STRATEGY_TABLE[cfg.strategy].family is not None
            assert grid_cell == (f"{cfg.grid_n} points" if polar else f"{cfg.grid_n}x{cfg.grid_n}"), name

    def test_polar_sweep_for_single_angle_needs_eta1(self):
        with pytest.raises(ValueError, match="eta1"):
            run_sweep(SweepConfig(strategy="polar-curve", grid_n=5))
        family = run_sweep(SweepConfig(strategy="polar-curve", grid_n=5, eta1=0.4))
        assert family.values.shape == (1, 5)


class TestEmit:
    def small_grid(self) -> SweepGrid:
        return run_sweep(SweepConfig(strategy="one-shot", grid_n=2))

    def test_csv_two_by_two_has_five_lines(self):
        text = format_csv(self.small_grid())
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[0] == "eta0,eta1,value"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_csv_is_row_major_in_first_angle(self):
        text = format_csv(self.small_grid())
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [r[0] for r in rows] == ["0", "0", "1.57079632679", "1.57079632679"]
        assert rows[1][1] == "1.57079632679"

    def test_csv_uses_twelve_significant_digits(self):
        grid = run_sweep(
            SweepConfig(strategy="one-shot", grid_n=2, eta0_range=(0.0, HALF_PI))
        )
        assert f"{HALF_PI:.12g}" in format_csv(grid)

    def test_json_round_trip(self):
        grid = run_sweep(SweepConfig(strategy="adaptive", grid_n=3))
        back = grid_from_json(format_json(grid))
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.row_values, grid.row_values)
        assert back.metadata == grid.metadata
        assert format_json(back) == format_json(grid)

    def test_curve_csv_header(self):
        family = run_sweep(PRESETS["fig2new"].config(grid_n=3))
        text = format_csv(family)
        assert text.splitlines()[0] == "eta1,theta,value"
        assert len(text.splitlines()) == 1 + 3 * 3

    def test_curve_json_round_trip(self):
        # the polar family and a strategy grid: the axes survive the trip and
        # re-emitting the parsed dataset reproduces both formats byte for byte
        family = run_sweep(PRESETS["fig2new"].config(grid_n=4))
        grid = run_sweep(SweepConfig(strategy="feedback", grid_n=3))
        for original, axes in ((family, POLAR_AXES), (grid, GRID_AXES)):
            back = grid_from_json(format_json(original))
            assert back.axes == original.axes == axes
            assert np.array_equal(back.values, original.values)
            assert format_json(back) == format_json(original)
            assert format_csv(back) == format_csv(original)

    def test_emit_writes_lf_only(self, tmp_path):
        path = tmp_path / "grid.csv"
        text = emit(self.small_grid(), "csv", str(path))
        raw = path.read_bytes()
        assert raw == text.encode()
        assert b"\r" not in raw

    def test_emit_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit(self.small_grid(), "yaml")

    def test_feedback_gain_json_diagonal_zero(self):
        grid = run_sweep(PRESETS["fig6"].config(grid_n=4))
        payload = json.loads(format_json(grid))
        values = np.asarray(payload["values"]).reshape(4, 4)
        assert np.abs(np.diagonal(values)).max() <= 1e-9


class TestRunMc:
    def test_certain_discrimination_has_zero_spread(self):
        cfg = SweepConfig(
            strategy="one-shot", eta0=HALF_PI, eta1=0.0, fixed={"x": 1.0},
            trials=1000, seed=11,
        )
        report = run_mc(cfg)
        assert report.analytic == pytest.approx(1.0, abs=1e-12)
        assert report.estimate == 1.0
        assert report.stderr == 0.0
        assert report.z == 0.0
        assert report.ok

    def test_identical_channels_within_four_sigma(self):
        cfg = SweepConfig(strategy="one-shot", eta0=0.4, eta1=0.4, trials=100_000, seed=5)
        report = run_mc(cfg)
        assert report.analytic == pytest.approx(0.5, abs=1e-12)
        assert report.ok

    def test_feedback_estimate_tracks_analytic(self):
        cfg = SweepConfig(
            strategy="feedback", eta0=HALF_PI, eta1=math.pi / 4,
            fixed={"x": 1.0, "alpha": math.pi / 4}, trials=100_000, seed=9,
        )
        report = run_mc(cfg)
        expected = (1.0 + math.sin(HALF_PI - math.pi / 4)) / 2.0
        assert report.analytic == pytest.approx(expected, abs=1e-12)
        assert abs(report.estimate - expected) <= 3.0 * report.stderr + 1e-12

    def test_seed_reproducibility(self):
        cfg = SweepConfig(strategy="adaptive", eta0=1.2, eta1=0.4, trials=20_000, seed=21)
        assert run_mc(cfg).estimate == run_mc(cfg).estimate

    def test_certain_analytic_value_with_a_failed_trial_is_inconsistent(self, monkeypatch):
        # a coin-flip tree that claims certain success: the binomial spread at
        # p = 1 is 0, so any failed trial is infinitely many sigmas out
        coin = Protocol("coin", (np.array([[0.5, 0.5], [0.5, 0.5]]),), np.array([0, 1]), 1.0)
        monkeypatch.setattr(sweep, "build_protocol", lambda *args: coin)
        report = run_mc(SweepConfig(strategy="one-shot", eta0=0.4, eta1=0.2, trials=20, seed=1))
        assert report.estimate < 1.0
        assert report.z == math.inf
        assert not report.ok

    def test_requires_trials_and_simulable_strategy(self):
        with pytest.raises(ValueError, match="trials"):
            run_mc(SweepConfig(strategy="one-shot", eta0=0.4, eta1=0.2))
        with pytest.raises(ValueError, match="cannot be simulated"):
            run_mc(SweepConfig(strategy="fwd-bwd-diff", eta0=0.4, eta1=0.2, trials=10))


class TestCli:
    def test_point_example_feedback(self):
        proc = run_cli("feedback", "--eta0", str(HALF_PI), "--eta1", "0")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "psucc = 1"

    def test_point_requires_both_angles(self):
        proc = run_cli("one-shot", "--eta0", "0.4")
        assert proc.returncode == 1
        assert "eta1" in proc.stderr

    def test_unknown_target_is_usage_error(self):
        proc = run_cli("bogus")
        assert proc.returncode == 1
        assert "unknown strategy or preset" in proc.stderr

    def test_bad_flag_value_is_usage_error(self):
        proc = run_cli("one-shot", "--x", "abc", "--eta0", "0.4", "--eta1", "0.2")
        assert proc.returncode == 1

    def test_odd_entangled_point_reports_x_zero(self):
        proc = run_cli("two-shot-entangled", "--eta0", "1.2", "--eta1", "0.4")
        assert proc.returncode == 0
        value, x = proc.stdout.splitlines()
        assert x == "x = 0"
        construction = strategies.two_shot_entangled_psucc(ChannelPair(1.2, 0.4), "odd", 0.0)
        assert value == f"psucc = {construction:.12g}"

    def test_point_with_negative_zero_prints_zero(self):
        proc = run_cli("one-shot", "--eta0", "1.2", "--eta1", "0.4", "--x", "-0.0")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["psucc = 0.5", "x = 0"]

    def test_sweep_with_negative_zero_range_writes_zero(self):
        proc = run_cli("one-shot", "--eta0-range", "-0.0", "1.0", "--grid", "3", "--format", "json")
        assert proc.returncode == 0
        assert "-0.0" not in proc.stdout
        payload = json.loads(proc.stdout)
        assert payload["metadata"]["eta0_range"] == [0.0, 1.0]
        assert payload["eta0_values"] == [0.0, 0.5, 1.0]

    def test_sweep_to_file_and_byte_identical_rerun(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            proc = run_cli("one-shot", "--grid", "2", "--out", str(out))
            assert proc.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 5

    def test_sweep_json_to_stdout(self):
        proc = run_cli("one-shot", "--grid", "2", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["metadata"]["strategy"] == "one-shot"
        assert len(payload["values"]) == 4

    def test_polar_preset_stdout_header(self):
        proc = run_cli("fig2new", "--grid", "5")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "eta1,theta,value"

    def test_unwritable_output_path_is_io_error(self, tmp_path):
        proc = run_cli("one-shot", "--grid", "2", "--out", str(tmp_path / "no" / "f.csv"))
        assert proc.returncode == 3
        assert "i/o error" in proc.stderr

    def test_mc_mode_exit_zero(self):
        proc = run_cli(
            "one-shot", "--eta0", str(HALF_PI), "--eta1", "0", "--x", "1",
            "--trials", "1000", "--seed", "3",
        )
        assert proc.returncode == 0
        assert "ok = yes" in proc.stdout

    def test_mc_run_whose_trials_all_agree_is_consistent(self):
        # analytic 0.999999894: two successes out of two is the likely result,
        # though the sample stderr of such a run is 0
        proc = run_cli(
            "backward", "--eta0", "1.5707963267948966", "--eta1", "0.021435470808784194",
            "--trials", "2",
        )
        assert proc.returncode == 0, proc.stderr
        assert "estimate = 1\nstderr = 0\n" in proc.stdout
        assert "ok = yes" in proc.stdout

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eta0": HALF_PI, "eta1": math.pi / 3, "fixed": {"x": 1.0}}))
        base = run_cli("one-shot", "--config", str(config))
        assert base.returncode == 0
        assert base.stdout.splitlines()[0] == "psucc = 0.625"
        override = run_cli("one-shot", "--config", str(config), "--x", "0.5")
        expected = one_shot_psucc(ChannelPair(HALF_PI, math.pi / 3), 0.5)
        assert override.stdout.splitlines()[0] == f"psucc = {expected:.12g}"

    def test_unknown_config_field_is_usage_error(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"etaX": 1.0}))
        proc = run_cli("one-shot", "--config", str(config))
        assert proc.returncode == 1
        assert "unknown config fields" in proc.stderr

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"trials": 10.5}, ("--eta0", "1.2", "--eta1", "0.4")),
            ({"trials": True}, ("--eta0", "1.2", "--eta1", "0.4")),
            ({"fixed": 3}, ("--eta0", "1.2", "--eta1", "0.4")),
            ({"fixed": {"x": "a"}}, ("--eta0", "1.2", "--eta1", "0.4")),
            ({"eta0": "1.2"}, ("--eta1", "0.4")),
        ],
    )
    def test_malformed_config_field_is_one_line_usage_error(self, tmp_path, config, flags):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        proc = run_cli("adaptive", "--config", str(path), *flags)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_config_file_cannot_pick_strategy_or_preset(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"strategy": "one-shot", "preset": "fig7", "eta0": 1.0, "eta1": 0.5}))
        proc = run_cli("adaptive", "--config", str(path))
        assert proc.returncode == 1
        assert proc.stderr == "usage error: unknown config fields: preset, strategy\n"
        assert proc.stdout == ""

    def test_preset_with_fixed_parameter_is_one_line_usage_error(self):
        proc = run_cli("fig7", "--grid", "2", "--x", "0.5", "--format", "json")
        assert proc.returncode == 1
        assert proc.stderr == "usage error: preset fig7 takes no fixed parameters, got x\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv", [("fig7", "--trials", "10", "--grid", "2"), ("fig2new", "--trials", "5")]
    )
    def test_preset_with_trials_is_one_line_usage_error(self, argv, capsys):
        # a preset is a sweep, so --trials would have nothing to simulate
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"usage error: preset {argv[0]} is a sweep and takes no trials, got {argv[2]}\n"

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("sequential", "--grid", "2", "--y", "0.3", "--format", "json"), "y"),
            (("adaptive-fb", "--grid", "2", "--x", "0.3"), "x"),
            (("polar-curve", "--eta1", "0.5", "--grid", "3", "--x", "0.3"), "x"),
            (
                ("polar-curve", "--eta1", "0.4", "--grid", "2", "--eta0-range", "0.1", "0.2", "--format", "json"),
                "eta0_range",
            ),
            (("polar-curve", "--eta1", "0.4", "--grid", "2", "--eta1-range", "0", "1"), "eta1_range"),
        ],
    )
    def test_sweep_with_a_parameter_the_strategy_ignores_is_usage_error(self, argv, key):
        # the metadata would otherwise record a parameter that shaped no value
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert proc.stderr == f"usage error: strategy {argv[0]} takes no parameter {key}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("trials", ["1000000000000000000000000000000", "9223372036854775808"])
    def test_trials_beyond_int64_is_one_line_usage_error(self, trials):
        proc = run_cli("one-shot", "--eta0", "1.2", "--eta1", "0.4", "--trials", trials)
        assert proc.returncode == 1
        assert proc.stderr == f"usage error: trials must be an integer in [1, 2**63 - 1], got {trials}\n"
        assert proc.stdout == ""

    def test_largest_trial_count_runs(self):
        proc = run_cli("one-shot", "--eta0", "1.2", "--eta1", "0.4", "--trials", "9223372036854775807")
        assert proc.returncode == 0, proc.stderr
        assert "trials = 9223372036854775807" in proc.stdout

    @pytest.mark.parametrize("argv", [("one-shot", "--eta0-range", "0", "1"), ("fig7",)])
    def test_null_grid_in_config_file_is_one_line_usage_error(self, tmp_path, argv):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid_n": None}))
        proc = run_cli(*argv, "--config", str(path))
        assert proc.returncode == 1
        assert proc.stderr == "usage error: grid_n must be an integer >= 2, got None\n"
        assert proc.stdout == ""

    def test_missing_config_file_is_io_error(self):
        proc = run_cli("one-shot", "--config", "/nope/cfg.json")
        assert proc.returncode == 3


class TestStrategyTable:
    def test_readme_table_matches_the_strategy_table(self):
        rows = readme_rows("## Strategies")
        assert [name.strip("`") for name, *_ in rows] == list(STRATEGIES)
        for name, params, trials, _ in rows:
            name = name.strip("`")
            listed = () if params == "none" else tuple(p.strip().strip("`") for p in params.split(","))
            assert listed == STRATEGY_TABLE[name].params, name
            assert trials == ("yes" if name in MC_STRATEGIES else "no"), name

    def test_every_simulable_strategy_is_a_strategy(self):
        assert set(MC_STRATEGIES) <= set(STRATEGIES)

    @pytest.mark.parametrize("strategy", [name for name in STRATEGIES if name not in MC_STRATEGIES])
    def test_trials_on_a_strategy_without_a_protocol_is_one_line_usage_error(self, strategy, capsys):
        code = cli.main([strategy, "--eta0", "1.2", "--eta1", "0.4", "--trials", "10"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith(f"usage error: strategy {strategy!r} cannot be simulated")
        assert err.count("\n") == 1


class TestFlatObjectiveConventions:
    def test_collective_probe_weight_pinned_for_identical_channels(self):
        res = two_shot_product_optimal(ChannelPair(0.7, 0.7))
        assert res.psucc == pytest.approx(0.5, abs=1e-12)
        assert res.params["x"] == 1.0

    def test_adaptive_optimum_still_half_for_identical_channels(self):
        res = adaptive_forward_optimal(ChannelPair(0.7, 0.7))
        assert res.psucc == pytest.approx(0.5, abs=1e-12)


def test_every_exported_name_is_a_package_attribute():
    # a stale __all__ entry would otherwise fail only at `from dampdisc import *`
    import dampdisc

    assert [name for name in dampdisc.__all__ if not hasattr(dampdisc, name)] == []
