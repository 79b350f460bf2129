"""Point evaluation, grid sweeps, figure presets and Monte Carlo runs.

This is the data-production layer behind the CLI: a SweepConfig describes what
to evaluate; run_point / run_sweep / run_mc produce typed reports; emit writes
CSV or JSON deterministically (same config, same bytes).  Point evaluations
cross-check closed forms against the numeric route and raise ConsistencyError
on disagreement, which the CLI maps to its own exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .channel import DEFAULT_VARIANT, TWO_SHOT_VARIANTS
from .discrimination import MAX_TRIALS, monte_carlo_psucc
from .protocols import MC_STRATEGIES, build_protocol
from .strategies import (
    ChannelPair,
    PairArrays,
    adaptive_feedback_closed_form,
    adaptive_feedback_psucc,
    adaptive_forward_optimal,
    adaptive_forward_psucc,
    backward_adaptive_measurement,
    backward_adaptive_optimal,
    damping_polar_curve,
    feedback_optimal,
    feedback_psucc,
    fwd_bwd_difference,
    one_shot_optimal,
    one_shot_optimal_numeric,
    one_shot_psucc,
    one_shot_psucc_numeric,
    polar_radius,
    sequential_effective_pair,
    sequential_two_shot_optimal,
    sequential_two_shot_psucc,
    side_ent_gain_expression,
    side_ent_optimal,
    side_ent_optimal_numeric,
    side_ent_psucc,
    two_shot_entangled_optimal,
    two_shot_entangled_psucc,
    two_shot_product_optimal,
    two_shot_product_psucc,
)
from .strategies import (
    _adaptive_forward_optimal_batch,
    _adaptive_forward_values_batch,
    _backward_adaptive_optimal_batch,
    _backward_first_step,
    _backward_scored,
    _feedback_values_batch,
    _forward_two_stage_value,
    _fwd_bwd_difference_batch,
    _side_ent_optimal_batch,
    _two_shot_ent_values_batch,
    _two_shot_product_optimal_batch,
    _two_shot_product_values_batch,
)

HALF_PI = math.pi / 2

VALUE_CHECK_TOL = 1e-8
ARGMAX_CHECK_TOL = 1e-3
IDENTITY_CHECK_TOL = 1e-9
FLAT_OBJECTIVE_TOL = 1e-9  # below this excess over 1/2 argmax location is meaningless
MC_Z_LIMIT = 4.0
MC_EXACT_GAP = 1e-12  # an estimate this close to the analytic value has z = 0

POLAR_CURVE_ANGLES = (0.0, math.pi / 6, math.pi / 3)
POLAR_GRID_DEFAULT = 91
_RECORD_GRID = object()  # grid_n not given: the preset's grid, or else the strategy's

# fixed real parameter -> (upper end, its text, what it is); each lies in [0, upper end]
FIXED_RANGES = {
    "x": (1.0, "1", "probe excited-state weight"),
    "y": (1.0, "1", "idle reference weight"),
    "alpha": (HALF_PI, "pi/2", "feedback measurement angle"),
}

GridCell = Callable[[np.ndarray, np.ndarray], np.ndarray]


class ConsistencyError(RuntimeError):
    """Closed-form and numeric evaluations disagree beyond tolerance."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _in_range(value, lo: float, hi: float) -> bool:
    """A real number (not bool) in [lo, hi]; NaN fails the comparison."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and lo <= value <= hi


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to reproduce one evaluation, sweep or simulation."""

    strategy: str | None = None
    grid_n: int = _RECORD_GRID  # type: ignore[assignment]
    eta0_range: tuple = (0.0, HALF_PI)
    eta1_range: tuple = (0.0, HALF_PI)
    fixed: dict = field(default_factory=dict)
    output_path: str | None = None
    format: str = "csv"
    seed: int = 20260815
    trials: int | None = None
    eta0: float | None = None
    eta1: float | None = None
    preset: str | None = None

    def __post_init__(self) -> None:
        """The one type and range check of every field, config files included.

        Real fields must be int or float (not bool) inside a closed range,
        which also rules out NaN and infinities; integer fields must be int.
        Each real field is stored as float(v) + 0.0, so -0.0 reads back as 0.0.
        A preset supplies the strategy, and an omitted grid_n is the preset's
        grid, or else the strategy record's.
        """
        record = None
        if self.preset is not None:
            if not isinstance(self.preset, str) or self.preset not in PRESETS:
                raise ValueError(f"unknown preset {self.preset!r}")
            record = PRESETS[self.preset]
            if self.strategy is None:
                object.__setattr__(self, "strategy", record.strategy)
            elif self.strategy != record.strategy:
                raise ValueError(f"preset {self.preset} is a {record.strategy} sweep, not {self.strategy!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose one of {', '.join(STRATEGIES)}"
            )
        if self.grid_n is _RECORD_GRID:
            object.__setattr__(self, "grid_n", (record or STRATEGY_TABLE[self.strategy]).grid_n)
        if not _is_int(self.grid_n) or self.grid_n < 2:
            raise ValueError(f"grid_n must be an integer >= 2, got {self.grid_n!r}")
        for name in ("eta0_range", "eta1_range"):
            rng = getattr(self, name)
            if not (
                isinstance(rng, (tuple, list))
                and len(rng) == 2
                and all(_in_range(v, 0.0, HALF_PI) for v in rng)
                and rng[0] <= rng[1]
            ):
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi <= pi/2, got {rng!r}")
            object.__setattr__(self, name, (float(rng[0]) + 0.0, float(rng[1]) + 0.0))
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got {self.output_path!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.trials is not None and (not _is_int(self.trials) or not 1 <= self.trials <= MAX_TRIALS):
            raise ValueError(f"trials must be an integer in [1, 2**63 - 1], got {self.trials!r}")
        if not isinstance(self.fixed, dict):
            raise ValueError(f"fixed must be a mapping of parameters, got {self.fixed!r}")
        for key in self.fixed:
            if key not in FIXED_KEYS:
                raise ValueError(f"unknown fixed parameter {key!r}; allowed: {FIXED_KEYS}")
        fixed = dict(self.fixed)
        for key, (hi, hi_text, _) in FIXED_RANGES.items():
            if key in fixed:
                if not _in_range(fixed[key], 0.0, hi):
                    raise ValueError(f"{key} must lie in [0, {hi_text}], got {fixed[key]!r}")
                fixed[key] = float(fixed[key]) + 0.0
        object.__setattr__(self, "fixed", fixed)
        if "variant" in self.fixed and self.fixed["variant"] not in TWO_SHOT_VARIANTS:
            choices = " or ".join(TWO_SHOT_VARIANTS)
            raise ValueError(f"variant must be {choices}, got {self.fixed['variant']!r}")
        if self.preset is not None and self.fixed:
            raise ValueError(
                f"preset {self.preset} takes no fixed parameters, got {', '.join(sorted(self.fixed))}"
            )
        for name, value in (("eta0", self.eta0), ("eta1", self.eta1)):
            if value is not None:
                if not _in_range(value, 0.0, HALF_PI):
                    raise ValueError(f"{name} must lie in [0, pi/2], got {value!r}")
                object.__setattr__(self, name, float(value) + 0.0)
        if self.preset is not None and self.trials is not None:
            raise ValueError(f"preset {self.preset} is a sweep and takes no trials, got {self.trials}")

    def pair(self) -> ChannelPair:
        if self.eta0 is None or self.eta1 is None:
            raise ValueError("this evaluation needs both --eta0 and --eta1")
        return ChannelPair(self.eta0, self.eta1)


@dataclass(frozen=True)
class PointReport:
    strategy: str
    value: float
    label: str
    params: dict
    measurement: dict | None = None

    def lines(self) -> list[str]:
        out = [f"{self.label} = {self.value:.12g}"]
        for key in sorted(self.params):
            out.append(f"{key} = {self.params[key]:.12g}")
        if self.measurement is not None and "local" in self.measurement:
            out.append(f"measurement local = {'yes' if self.measurement['local'] else 'no'}")
        return out


GRID_AXES = ("eta0", "eta1")
POLAR_AXES = ("eta1", "theta")


@dataclass(frozen=True)
class SweepGrid:
    """Every dataset: ``values[i, j]`` at (``row_values[i]``, ``col_values[j]``).

    ``axes`` names the row and column coordinates: GRID_AXES for strategy
    and preset grids, POLAR_AXES for the polar family (one row per channel
    angle, columns over theta).
    """

    axes: tuple
    row_values: np.ndarray
    col_values: np.ndarray
    values: np.ndarray
    metadata: dict

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.row_values), len(self.col_values)):
            raise ValueError(
                f"values shape {values.shape} inconsistent with axes "
                f"({len(self.row_values)}, {len(self.col_values)})"
            )
        if not np.isfinite(values).all():
            raise ValueError("sweep produced non-finite values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class McReport:
    """A simulation against its analytic value.

    ``stderr`` is the sample standard error of the estimate; ``z`` divides the
    gap by the binomial spread at the analytic value instead, which stays
    nonzero when every trial agrees.
    """

    analytic: float
    estimate: float
    stderr: float
    trials: int
    z: float
    ok: bool

    def lines(self) -> list[str]:
        return [
            f"analytic = {self.analytic:.12g}",
            f"estimate = {self.estimate:.12g}",
            f"stderr = {self.stderr:.12g}",
            f"z = {self.z:.12g}",
            f"trials = {self.trials}",
            f"ok = {'yes' if self.ok else 'no'}",
        ]


@dataclass(frozen=True)
class FigurePreset:
    """A named dataset: the quantity behind one published panel.

    ``cell(eta0, eta1)`` maps two 1-D arrays of ordered angles
    (eta0[k] >= eta1[k]) to the value at each pair; None for the polar family.
    """

    id: str
    description: str
    strategy: str
    cell: GridCell | None
    grid_n: int = _RECORD_GRID  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.grid_n is _RECORD_GRID:
            object.__setattr__(self, "grid_n", STRATEGY_TABLE[self.strategy].grid_n)

    def config(self, grid_n: int | None = None) -> SweepConfig:
        """The preset's sweep; grid_n None is its default grid."""
        return SweepConfig(preset=self.id, grid_n=_RECORD_GRID if grid_n is None else grid_n)


# ---------------------------------------------------------------------------
# point evaluation with dual-route consistency checks


def _check_close(label: str, a: float, b: float, tol: float) -> None:
    if abs(a - b) > tol:
        raise ConsistencyError(f"{label}: {a!r} vs {b!r} (tolerance {tol})")


def _point_one_shot(pair: ChannelPair, fixed: dict) -> PointReport:
    x = fixed.get("x")
    if x is not None:
        value = one_shot_psucc(pair, x)
        _check_close("one-shot closed vs numeric", value, one_shot_psucc_numeric(pair, x), IDENTITY_CHECK_TOL)
        return PointReport("one-shot", value, "psucc", {"x": x})
    res = one_shot_optimal(pair)
    x_num, val_num = one_shot_optimal_numeric(pair)
    _check_close("one-shot optimum closed vs numeric", res.psucc, val_num, VALUE_CHECK_TOL)
    if res.psucc - 0.5 > FLAT_OBJECTIVE_TOL:
        _check_close("one-shot argmax closed vs numeric", res.params["x"], x_num, ARGMAX_CHECK_TOL)
    return PointReport("one-shot", res.psucc, "psucc", res.params)


def _point_side_ent(pair: ChannelPair, fixed: dict) -> PointReport:
    y = fixed.get("y")
    if y is not None:
        value = side_ent_psucc(pair, y)
        _check_close(
            "side-ent numeric vs closed separation",
            value,
            0.5 + 0.25 * side_ent_gain_expression(pair, y),
            IDENTITY_CHECK_TOL,
        )
        return PointReport("side-ent", value, "psucc", {"y": y})
    res = side_ent_optimal(pair)
    y_num, val_num = side_ent_optimal_numeric(pair)
    _check_close("side-ent optimum closed vs numeric", res.psucc, val_num, 1e-6)
    if res.psucc - 0.5 > FLAT_OBJECTIVE_TOL:
        _check_close("side-ent argmax closed vs numeric", res.params["y"], y_num, ARGMAX_CHECK_TOL)
    return PointReport("side-ent", res.psucc, "psucc", res.params)


def _point_feedback(pair: ChannelPair, fixed: dict) -> PointReport:
    res = feedback_optimal(pair)
    if "x" in fixed or "alpha" in fixed:
        params = {key: fixed.get(key, value) for key, value in res.params.items()}
        value = feedback_psucc(pair, **params)
        _check_close(
            "feedback construction vs batched evaluation",
            value,
            float(_feedback_values_batch(pair, **params)),
            1e-10,
        )
        return PointReport("feedback", value, "psucc", params)
    _check_close(
        "feedback optimum closed vs construction",
        res.psucc,
        feedback_psucc(pair, **res.params),
        IDENTITY_CHECK_TOL,
    )
    return PointReport("feedback", res.psucc, "psucc", res.params)


def _point_two_shot_entangled(pair: ChannelPair, fixed: dict) -> PointReport:
    variant = fixed.get("variant", DEFAULT_VARIANT)
    x = fixed.get("x")
    if x is not None:
        value = two_shot_entangled_psucc(pair, variant, x)
        _check_close(
            "two-shot entangled scalar vs batched",
            value,
            float(_two_shot_ent_values_batch(pair, variant, np.asarray(x))),
            IDENTITY_CHECK_TOL,
        )
        return PointReport("two-shot-entangled", value, "psucc", {"x": x})
    res = two_shot_entangled_optimal(pair, variant)
    _check_close(
        "two-shot entangled optimum vs scalar at argmax",
        res.psucc,
        two_shot_entangled_psucc(pair, variant, res.params["x"]),
        IDENTITY_CHECK_TOL,
    )
    return PointReport("two-shot-entangled", res.psucc, "psucc", res.params)


def _point_two_shot_product(pair: ChannelPair, fixed: dict) -> PointReport:
    x = fixed.get("x")
    if x is not None:
        value = two_shot_product_psucc(pair, x)
        _check_close(
            "two-shot product scalar vs batched",
            value,
            float(_two_shot_product_values_batch(pair, np.asarray(x))),
            IDENTITY_CHECK_TOL,
        )
        return PointReport("two-shot-product", value, "psucc", {"x": x})
    res = two_shot_product_optimal(pair)
    _check_close(
        "two-shot product optimum vs scalar at argmax",
        res.psucc,
        two_shot_product_psucc(pair, res.params["x"]),
        IDENTITY_CHECK_TOL,
    )
    return PointReport("two-shot-product", res.psucc, "psucc", res.params, res.measurement)


def _point_adaptive(pair: ChannelPair, fixed: dict) -> PointReport:
    x = fixed.get("x")
    if x is not None:
        value = adaptive_forward_psucc(pair, x)
        _check_close(
            "adaptive scalar vs batched",
            value,
            float(_adaptive_forward_values_batch(pair, np.asarray(x))),
            1e-10,
        )
        return PointReport("adaptive", value, "psucc", {"x": x})
    res = adaptive_forward_optimal(pair)
    _check_close(
        "adaptive optimum vs scalar at argmax",
        res.psucc,
        adaptive_forward_psucc(pair, res.params["x"]),
        IDENTITY_CHECK_TOL,
    )
    return PointReport("adaptive", res.psucc, "psucc", res.params)


def _point_adaptive_fb(pair: ChannelPair, fixed: dict) -> PointReport:
    value = adaptive_feedback_psucc(pair)
    _check_close(
        "two-copy feedback construction vs closed form",
        value,
        adaptive_feedback_closed_form(pair),
        IDENTITY_CHECK_TOL,
    )
    return PointReport("adaptive-fb", value, "psucc", {})


def _check_backward_dominates(backward, forward, what: str) -> None:
    """Backward contains the forward first measurement, so it never scores lower."""
    if np.any(np.asarray(backward) < np.asarray(forward) - IDENTITY_CHECK_TOL):
        raise ConsistencyError(f"backward {what} fell below the forward {what}")


def _point_backward(pair: ChannelPair, fixed: dict) -> PointReport:
    x = fixed.get("x")
    if x is not None:
        outputs = pair.output_pair(x)
        _, value = backward_adaptive_measurement(pair, x, outputs)
        _check_backward_dominates(value, _forward_two_stage_value(*outputs), "value")
        return PointReport("backward", value, "psucc", {"x": x})
    x_star, value = backward_adaptive_optimal(pair)
    _check_backward_dominates(value, adaptive_forward_optimal(pair).psucc, "optimum")
    return PointReport("backward", value, "psucc", {"x": x_star})


def _point_sequential(pair: ChannelPair, fixed: dict) -> PointReport:
    x = fixed.get("x")
    if x is None:
        res = sequential_two_shot_optimal(pair)
        x, value = res.params["x"], res.psucc
        other = sequential_two_shot_psucc(pair, x)
    else:
        value = sequential_two_shot_psucc(pair, x)
        other = one_shot_psucc(sequential_effective_pair(pair), x)
    _check_close(
        "sequential composition vs effective single channel", value, other, IDENTITY_CHECK_TOL
    )
    return PointReport("sequential", value, "psucc", {"x": x})


def _check_fwd_bwd(difference) -> None:
    if np.any(np.asarray(difference) > IDENTITY_CHECK_TOL):
        raise ConsistencyError(
            "forward optimum exceeded the backward optimum, which is structurally impossible"
        )


def _point_fwd_bwd(pair: ChannelPair, fixed: dict) -> PointReport:
    value = fwd_bwd_difference(pair)
    _check_fwd_bwd(value)
    return PointReport("fwd-bwd-diff", value, "difference", {})


def _polar_radius_closed(eta1: float, x: float) -> float:
    return 2.0 * math.cos(eta1) * math.sqrt(max(0.0, x * (1.0 - x * math.sin(eta1) ** 2)))


def _point_polar(cfg: SweepConfig) -> PointReport:
    if cfg.eta1 is None:
        raise ValueError(f"{cfg.strategy} needs --eta1")
    x = cfg.fixed.get("x", 1.0)
    theta = math.asin(math.sqrt(x))
    radius = polar_radius(cfg.eta1, x)
    _check_close(
        "polar radius numeric vs closed",
        radius,
        _polar_radius_closed(cfg.eta1, x),
        IDENTITY_CHECK_TOL,
    )
    return PointReport("polar-curve", radius, "radius", {"theta": theta, "x": x})


# ---------------------------------------------------------------------------
# sweeps and presets


def _per_pair(value: Callable[[ChannelPair], float]) -> GridCell:
    """Grid cell that evaluates ``value`` one channel pair at a time."""

    def cell(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
        return np.array([value(ChannelPair(float(a), float(b))) for a, b in zip(eta0, eta1)])

    return cell


_one_shot_optima = _per_pair(lambda pair: one_shot_optimal(pair).psucc)


def _preset_side_gain(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    pairs = PairArrays.columns(eta0, eta1)
    return _side_ent_optimal_batch(pairs)[1] - (0.5 + 0.25 * side_ent_gain_expression(pairs, 0.0)[:, 0])


def _preset_side_optimum(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    return _side_ent_optimal_batch(PairArrays.columns(eta0, eta1))[1]


def _preset_side_weight(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    return _side_ent_optimal_batch(PairArrays.columns(eta0, eta1))[0]


@_per_pair
def _preset_feedback_gain(pair: ChannelPair) -> float:
    return feedback_optimal(pair).psucc - one_shot_optimal(pair).psucc


def _preset_collective_gain(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    collective = _two_shot_product_optimal_batch(PairArrays.columns(eta0, eta1))[1]
    return collective - _one_shot_optima(eta0, eta1)


def _preset_collective_probe(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    return _two_shot_product_optimal_batch(PairArrays.columns(eta0, eta1))[0]


def _preset_collective_vs_adaptive(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    pairs = PairArrays.columns(eta0, eta1)
    return _two_shot_product_optimal_batch(pairs)[1] - _adaptive_forward_optimal_batch(pairs)[1]


def _preset_adaptive_gain(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    adaptive = _adaptive_forward_optimal_batch(PairArrays.columns(eta0, eta1))[1]
    return adaptive - _one_shot_optima(eta0, eta1)


def _preset_second_copy_feedback_gain(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    """adaptive_feedback_closed_form minus feedback_optimal, written without cancellation.

    (sin d sqrt(1 + cos^2 d) - sin d) / 2 = sin d cos^2 d / (2 (1 + sqrt(1 + cos^2 d))),
    d = eta0 - eta1.
    """
    d = eta0 - eta1
    cos_sq = np.cos(d) ** 2
    return 0.5 * np.sin(d) * cos_sq / (1.0 + np.sqrt(1.0 + cos_sq))


def _grid_fwd_bwd(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    """fwd-bwd-diff on every cell at once, with the point query's check on each."""
    difference = _fwd_bwd_difference_batch(PairArrays.columns(eta0, eta1))
    _check_fwd_bwd(difference)
    return difference


def _grid_backward(fixed: dict) -> GridCell:
    """backward on every cell at once, with the point query's check on each."""
    x = fixed.get("x")

    def cell(eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
        pairs = PairArrays.columns(eta0, eta1)
        if x is None:
            value = _backward_adaptive_optimal_batch(pairs)[1]
            _check_backward_dominates(value, _adaptive_forward_optimal_batch(pairs)[1], "optimum")
            return value
        theta_star, _ = _backward_first_step(pairs, x)
        value = _backward_scored(pairs, [x] * len(eta0), theta_star[:, 0])
        _check_backward_dominates(value, _adaptive_forward_values_batch(pairs, x)[:, 0], "value")
        return value

    return cell


def _metadata(cfg: SweepConfig) -> dict:
    meta = {
        "strategy": cfg.strategy,
        "grid_n": cfg.grid_n,
        "eta0_range": list(cfg.eta0_range),
        "eta1_range": list(cfg.eta1_range),
        "fixed": dict(sorted(cfg.fixed.items())),
        "version": __version__,
    }
    if cfg.preset is not None:
        meta["preset"] = cfg.preset
        meta["description"] = PRESETS[cfg.preset].description
    return meta


def _polar_family(cfg: SweepConfig) -> SweepGrid:
    if cfg.preset is not None:
        angles = POLAR_CURVE_ANGLES
    else:
        if cfg.eta1 is None:
            raise ValueError(f"{cfg.strategy} sweep needs --eta1")
        angles = (cfg.eta1,)
    values = [[p.radius for p in damping_polar_curve(eta1, cfg.grid_n)] for eta1 in angles]
    thetas = np.linspace(0.0, HALF_PI, cfg.grid_n)
    meta = _metadata(cfg)
    meta["theta_points"] = cfg.grid_n
    return SweepGrid(POLAR_AXES, np.asarray(angles, dtype=float), thetas, values, meta)


# ---------------------------------------------------------------------------
# the strategy table


@dataclass(frozen=True)
class Strategy:
    """What the sweep layer and the CLI know of one strategy.

    ``params`` are the fixed parameters it takes; a sweep rejects any other.
    On the (eta0, eta1) grid, ``point(pair, fixed)`` is the point query with
    its dual-route check, and ``cells(fixed)`` makes the grid function of a
    sweep (None: one point query per cell).  A strategy with a ``family``
    runs over an axis of its own instead: ``point(cfg)`` and ``family(cfg)``
    take the whole config, and a sweep rejects range flags too.  ``grid_n``
    is the default grid of its sweeps, and of each preset that states none.
    """

    params: tuple
    point: Callable[..., PointReport]
    cells: Callable[[dict], GridCell] | None = None
    family: Callable[[SweepConfig], SweepGrid] | None = None
    grid_n: int = 25

    def query(self, cfg: SweepConfig) -> PointReport:
        if self.family is not None:
            return self.point(cfg)
        return self.point(cfg.pair(), cfg.fixed)

    def grid_cell(self, fixed: dict) -> GridCell:
        if self.cells is not None:
            return self.cells(fixed)
        return _per_pair(lambda pair: self.point(pair, fixed).value)


STRATEGY_TABLE = {
    "one-shot": Strategy(("x",), _point_one_shot),
    "side-ent": Strategy(("y",), _point_side_ent),
    "feedback": Strategy(("x", "alpha"), _point_feedback),
    "two-shot-entangled": Strategy(("x", "variant"), _point_two_shot_entangled),
    "two-shot-product": Strategy(("x",), _point_two_shot_product),
    "adaptive": Strategy(("x",), _point_adaptive),
    "adaptive-fb": Strategy((), _point_adaptive_fb),
    "backward": Strategy(("x",), _point_backward, cells=_grid_backward),
    "sequential": Strategy(("x",), _point_sequential),
    "fwd-bwd-diff": Strategy((), _point_fwd_bwd, cells=lambda fixed: _grid_fwd_bwd),
    "polar-curve": Strategy((), _point_polar, family=_polar_family, grid_n=POLAR_GRID_DEFAULT),
}
STRATEGIES = tuple(STRATEGY_TABLE)
FIXED_KEYS = tuple(dict.fromkeys(key for record in STRATEGY_TABLE.values() for key in record.params))


PRESETS = {
    "fig2new": FigurePreset(
        id="fig2new",
        description="polar separation curves from the ground state for three channel angles",
        strategy="polar-curve",
        cell=None,
    ),
    "fig3": FigurePreset(
        id="fig3",
        description="gain from an idle entangled reference over the best bare probe",
        strategy="side-ent",
        cell=_preset_side_gain,
    ),
    "fig4new": FigurePreset(
        id="fig4new",
        description="best success probability with an idle entangled reference",
        strategy="side-ent",
        cell=_preset_side_optimum,
    ),
    "fig4": FigurePreset(
        id="fig4",
        description="optimal reference weight for the entangled input",
        strategy="side-ent",
        cell=_preset_side_weight,
    ),
    "fig6": FigurePreset(
        id="fig6",
        description="environment feedback gain over the best unassisted probe",
        strategy="feedback",
        cell=_preset_feedback_gain,
    ),
    "fig7": FigurePreset(
        id="fig7",
        description="two-probe collective gain over the best single probe",
        strategy="two-shot-product",
        cell=_preset_collective_gain,
    ),
    "fig8": FigurePreset(
        id="fig8",
        description="optimal probe weight for the two-probe collective strategy",
        strategy="two-shot-product",
        cell=_preset_collective_probe,
    ),
    "fig10": FigurePreset(
        id="fig10",
        description="collective minus adaptive local-measurement success probability",
        strategy="adaptive",
        cell=_preset_collective_vs_adaptive,
    ),
    "fig11": FigurePreset(
        id="fig11",
        description="adaptive local-measurement gain over the best single probe",
        strategy="adaptive",
        cell=_preset_adaptive_gain,
    ),
    "fig13": FigurePreset(
        id="fig13",
        description="second feedback-assisted copy gain over one feedback-assisted copy",
        strategy="adaptive-fb",
        cell=_preset_second_copy_feedback_gain,
    ),
    "fig15": FigurePreset(
        id="fig15",
        description="forward minus backward optimized adaptive success",
        strategy="fwd-bwd-diff",
        cell=_grid_fwd_bwd,
        grid_n=9,
    ),
}


def run_point(cfg: SweepConfig) -> PointReport:
    """Evaluate one strategy at one channel pair, cross-checking dual routes."""
    return STRATEGY_TABLE[cfg.strategy].query(cfg)


def run_sweep(cfg: SweepConfig) -> SweepGrid:
    """Evaluate the configured quantity on the (eta0, eta1) grid.

    Every cell depends only on its channel pair, which is ordered (stronger
    damping first) before the grid function sees it.  A fixed parameter the
    strategy does not take, or a range flag on a strategy off the pair grid,
    is rejected, so the metadata records only inputs that shaped the values.
    """
    strategy = STRATEGY_TABLE[cfg.strategy]
    ignored = sorted(set(cfg.fixed) - set(strategy.params))
    if strategy.family is not None:
        ignored += [name for name in ("eta0_range", "eta1_range") if getattr(cfg, name) != (0.0, HALF_PI)]
    if ignored:
        raise ValueError(f"strategy {cfg.strategy} takes no parameter {', '.join(ignored)}")
    if strategy.family is not None:
        return strategy.family(cfg)
    cell = PRESETS[cfg.preset].cell if cfg.preset is not None else strategy.grid_cell(cfg.fixed)
    eta0s = np.linspace(cfg.eta0_range[0], cfg.eta0_range[1], cfg.grid_n)
    eta1s = np.linspace(cfg.eta1_range[0], cfg.eta1_range[1], cfg.grid_n)
    e0, e1 = np.meshgrid(eta0s, eta1s, indexing="ij")
    flat = cell(np.maximum(e0, e1).ravel(), np.minimum(e0, e1).ravel())
    values = np.asarray(flat, dtype=float).reshape(cfg.grid_n, cfg.grid_n)
    return SweepGrid(GRID_AXES, eta0s, eta1s, values, _metadata(cfg))


# ---------------------------------------------------------------------------
# Monte Carlo


def run_mc(cfg: SweepConfig) -> McReport:
    """Simulate the strategy's measurement tree and compare with the analytic value."""
    if cfg.trials is None:
        raise ValueError("Monte Carlo mode needs --trials")
    if cfg.strategy not in MC_STRATEGIES:
        raise ValueError(
            f"strategy {cfg.strategy!r} cannot be simulated; "
            f"choose one of {', '.join(MC_STRATEGIES)}"
        )
    protocol = build_protocol(cfg.strategy, cfg.pair(), cfg.fixed)
    est = monte_carlo_psucc(protocol, trials=cfg.trials, seed=cfg.seed)
    p = protocol.analytic_psucc
    gap = est.estimate - p
    # the binomial spread at the analytic value: the sample stderr is 0 whenever
    # every trial agrees, which says nothing about whether the estimate is off
    spread = math.sqrt(max(p * (1.0 - p), 0.0) / est.trials)
    if abs(gap) <= MC_EXACT_GAP:
        z = 0.0
    elif spread > 0.0:
        z = gap / spread
    else:
        z = math.inf
    return McReport(
        analytic=protocol.analytic_psucc,
        estimate=est.estimate,
        stderr=est.stderr,
        trials=est.trials,
        z=z,
        ok=abs(z) <= MC_Z_LIMIT,
    )


# ---------------------------------------------------------------------------
# serialization


def format_csv(grid: SweepGrid) -> str:
    lines = [f"{grid.axes[0]},{grid.axes[1]},value"]
    for i, row in enumerate(grid.row_values):
        for j, col in enumerate(grid.col_values):
            lines.append(f"{row:.12g},{col:.12g},{grid.values[i, j]:.12g}")
    return "\n".join(lines) + "\n"


def format_json(grid: SweepGrid) -> str:
    row_axis, col_axis = grid.axes
    payload = {
        "metadata": grid.metadata,
        f"{row_axis}_values": [float(v) for v in grid.row_values],
        f"{col_axis}_values": [float(v) for v in grid.col_values],
        "values": [float(v) for v in grid.values.ravel()],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def grid_from_json(text: str) -> SweepGrid:
    payload = json.loads(text)
    axes = POLAR_AXES if "theta_values" in payload else GRID_AXES
    rows, cols = (np.asarray(payload[f"{axis}_values"], dtype=float) for axis in axes)
    values = np.asarray(payload["values"], dtype=float).reshape(len(rows), len(cols))
    return SweepGrid(axes, rows, cols, values, payload["metadata"])


def emit(grid: SweepGrid, fmt: str = "csv", path: str | None = None) -> str:
    """Render the dataset; write it (LF endings) when a path is given."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    text = format_csv(grid) if fmt == "csv" else format_json(grid)
    if path is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return text
