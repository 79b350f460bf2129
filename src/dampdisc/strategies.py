"""Discrimination strategies for a pair of amplitude damping channels.

Each quantity has two independent routes: a numeric construction (channel
outputs fed into the optimal-measurement machinery), which is the ground
truth, and one closed or batched form, cross-checked against the construction
in the tests and in every point evaluation; the construction takes its channel
outputs from a ``_outputs`` function, as the Monte Carlo tree does.  The second
form takes arrays of parameter values, so the maximizers evaluate a whole grid
in one numpy pass: a closed form that broadcasts or a helper with suffix
``_batch``.  Given a PairArrays, these forms run over many channel pairs at
once, and an optimum on them gives a single pair's as its one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import DampingChannel, InputState, SideEntangledInput
from .discrimination import (
    Povm,
    helstrom,
    helstrom_psucc,
    maximize_scalar,
    maximize_scalar_cells,
    pure_state_psucc,
)
from .linalg import hermitian_eig, projector, trace_norm

PSUCC_SLACK = 1e-9
ZERO_BRANCH_TOL = 1e-12  # squared norm below which an outcome is impossible
WEIGHT_SLACK = 1e-10
SCHMIDT_PRODUCT_TOL = 1e-8
INV_SQRT2 = 1.0 / math.sqrt(2.0)
SQRT2 = math.sqrt(2.0)

TWO_SHOT_GRID_POINTS = 513  # 4x4 trace norms have eigenvalue-crossing kinks
# the forward strategy's first effect P+(cos t rho0 - sin t rho1) = P+(rho0 - rho1)
FORWARD_T = math.pi / 4
# first-effect Bloch angles scanned per probe weight, on the arc from n0 to -n1
BACKWARD_ARC_GRID_POINTS = 513
# probe weights scanned before the golden refinement of the backward optimum
BACKWARD_X_GRID_POINTS = 65
BACKWARD_X_TOL = 1e-6
# coordinate ascent of feedback_optimal_numeric: rounds, and grid points per scan
FEEDBACK_ASCENT_ROUNDS = 3
FEEDBACK_GRID_POINTS = 129


@dataclass(frozen=True)
class ChannelPair:
    """Two damping angles, stronger damping first.

    The constructor swaps the angles if given in increasing order, so every
    downstream formula can assume eta0 >= eta1.
    """

    eta0: float
    eta1: float

    def __post_init__(self) -> None:
        for name, value in (("eta0", self.eta0), ("eta1", self.eta1)):
            if not 0.0 <= value <= math.pi / 2:
                raise ValueError(f"{name} must lie in [0, pi/2], got {value}")
        if self.eta1 > self.eta0:
            hi, lo = self.eta1, self.eta0
            object.__setattr__(self, "eta0", hi)
            object.__setattr__(self, "eta1", lo)

    @property
    def gamma(self) -> float:
        return math.cos(self.eta1) + math.cos(self.eta0)

    @property
    def channel0(self) -> DampingChannel:
        return DampingChannel(self.eta0)

    @property
    def channel1(self) -> DampingChannel:
        return DampingChannel(self.eta1)

    def output_pair(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """Single-use channel outputs for the probe with excited weight x."""
        inp = InputState(x)
        return self.channel0.output_state(inp), self.channel1.output_state(inp)


class PairArrays(NamedTuple):
    """Many ordered channel pairs (eta0 >= eta1 entrywise) as angle arrays.

    Stands in for a ChannelPair in ``_two_shot_product_values_batch``,
    ``_adaptive_forward_values_batch``, ``_backward_first_step`` and
    ``side_ent_gain_expression``: the angles broadcast against the parameter
    array, so column angles of shape (n, 1) with parameters of shape (1, k)
    give an (n, k) block of values.
    """

    eta0: np.ndarray
    eta1: np.ndarray

    @classmethod
    def columns(cls, eta0: np.ndarray, eta1: np.ndarray) -> "PairArrays":
        """One pair per row, from 1-D arrays of ordered angles."""
        return cls(np.asarray(eta0, dtype=float)[:, None], np.asarray(eta1, dtype=float)[:, None])

    @classmethod
    def of(cls, pair: ChannelPair) -> "PairArrays":
        """The one row of a single ChannelPair."""
        return cls.columns([pair.eta0], [pair.eta1])

    def take(self, idx: np.ndarray) -> "PairArrays":
        return PairArrays(self.eta0[idx], self.eta1[idx])

    def channel_pairs(self) -> list[ChannelPair]:
        """The ChannelPair of each row of column pairs."""
        return [ChannelPair(float(a), float(b)) for a, b in zip(self.eta0[:, 0], self.eta1[:, 0])]


@dataclass(frozen=True)
class StrategyResult:
    """Optimized success probability with the parameters that achieve it."""

    psucc: float
    params: dict
    measurement: dict | None = None

    def __post_init__(self) -> None:
        if not 0.5 - PSUCC_SLACK <= self.psucc <= 1.0 + PSUCC_SLACK:
            raise ValueError(f"success probability {self.psucc!r} outside [1/2, 1]")


@dataclass(frozen=True)
class FeedbackTerms:
    """Ingredients of the printed feedback success formula."""

    chi: float
    mu: float
    nu: float
    c0: float
    c1: float

    def __post_init__(self) -> None:
        for name, v in (("chi", self.chi), ("c0", self.c0), ("c1", self.c1)):
            if not -WEIGHT_SLACK <= v <= 1.0 + WEIGHT_SLACK:
                raise ValueError(f"{name} must be a probability, got {v}")


@dataclass(frozen=True)
class PolarCurvePoint:
    """Separation from the ground state in polar form: angle encodes the input."""

    theta: float
    radius: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")
        if not -WEIGHT_SLACK <= self.radius <= 2.0 + WEIGHT_SLACK:
            raise ValueError(f"radius must lie in [0, 2], got {self.radius}")


# ---------------------------------------------------------------------------
# batched building blocks


def _trace_norm_2x2(t: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Trace norm of Hermitian 2x2 matrices from trace and determinant."""
    return np.maximum(np.abs(t), np.sqrt(np.maximum(t * t - 4.0 * det, 0.0)))


def _checked_psucc(psucc: np.ndarray) -> np.ndarray:
    """The [1/2, 1] range check of StrategyResult, on every cell of a batch."""
    outside = ~((0.5 - PSUCC_SLACK <= psucc) & (psucc <= 1.0 + PSUCC_SLACK))
    if outside.any():
        raise ValueError(f"success probability {float(psucc[outside][0])!r} outside [1/2, 1]")
    return psucc


def _output_entries(eta, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (00, 01, 11) of the single-use output, broadcast over eta and x."""
    c = np.cos(eta)
    off = c * np.sqrt(np.clip(x * (1.0 - x), 0.0, None))
    pop = x * c * c
    return 1.0 - pop, off, pop


# ---------------------------------------------------------------------------
# single use, bare probe


def one_shot_psucc(pair: ChannelPair, x) -> float | np.ndarray:
    """Closed-form success probability for a bare probe with excited weight x."""
    xs = np.asarray(x, dtype=float)
    dc = math.cos(pair.eta1) - math.cos(pair.eta0)
    radicand = np.clip(xs * (1.0 - xs * (1.0 - pair.gamma**2)), 0.0, None)
    out = 0.5 * (1.0 + dc * np.sqrt(radicand))
    return out if xs.ndim else float(out)


def one_shot_psucc_numeric(pair: ChannelPair, x: float) -> float:
    """Same quantity from channel outputs and the optimal binary measurement."""
    rho0, rho1 = pair.output_pair(x)
    return helstrom_psucc(rho0, rho1)


def one_shot_optimal(pair: ChannelPair) -> StrategyResult:
    """Closed-form optimum over the probe weight x."""
    g = pair.gamma
    dc = math.cos(pair.eta1) - math.cos(pair.eta0)
    if g < INV_SQRT2:
        x_star = 1.0 / (2.0 * (1.0 - g * g))
        psucc = 0.25 * (2.0 + dc / math.sqrt(1.0 - g * g))
    else:
        x_star = 1.0
        psucc = 0.5 * (math.sin(pair.eta0) ** 2 + math.cos(pair.eta1) ** 2)
    return StrategyResult(psucc=psucc, params={"x": x_star})


def one_shot_optimal_numeric(pair: ChannelPair) -> tuple[float, float]:
    return maximize_scalar(lambda xs: one_shot_psucc(pair, xs), 0.0, 1.0)


def polar_radius(eta1: float, x: float) -> float:
    """Trace norm of (ground-state projector minus the damped probe of excited weight x)."""
    ground = np.diag([1.0, 0.0]).astype(complex)
    return trace_norm(ground - DampingChannel(eta1).output_state(InputState(x)))


def damping_polar_curve(eta1: float, n_points: int) -> list[PolarCurvePoint]:
    """Separation of the damped probe from the ground state, on a theta grid.

    theta parametrizes the probe via x = sin(theta)^2; the radius is polar_radius.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    return [
        PolarCurvePoint(theta=float(theta), radius=polar_radius(eta1, math.sin(theta) ** 2))
        for theta in np.linspace(0.0, math.pi / 2, n_points)
    ]


# ---------------------------------------------------------------------------
# single use, entangled reference


def side_ent_outputs(pair: ChannelPair, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference-probe outputs: the probe through each channel, the reference idle."""
    inp = SideEntangledInput(y)
    return pair.channel0.side_entangled_output(inp), pair.channel1.side_entangled_output(inp)


def side_ent_psucc(pair: ChannelPair, y: float) -> float:
    """Success probability with an idle reference qubit, measured jointly."""
    return helstrom_psucc(*side_ent_outputs(pair, y))


def side_ent_gain_expression(pair: ChannelPair | PairArrays, y) -> float | np.ndarray:
    """Closed-form separation between the two reference-assisted outputs.

    This is the trace norm of the output difference; the success probability
    is 1/2 plus a quarter of it.  A PairArrays broadcasts against y.
    """
    ys = np.asarray(y, dtype=float)
    c0, c1 = np.cos(pair.eta0), np.cos(pair.eta1)
    g = c0 + c1
    inner = (1.0 - ys) * (4.0 * ys + (1.0 - ys) * g * g)
    out = (c1 - c0) * ((1.0 - ys) * g + np.sqrt(np.clip(inner, 0.0, None)))
    return out if np.ndim(out) else float(out)


def side_ent_optimal(pair: ChannelPair) -> StrategyResult:
    """Closed-form optimal reference weight, success probability evaluated numerically."""
    y_star = float(_side_ent_optimal_batch(PairArrays.of(pair))[0][0])
    return StrategyResult(psucc=side_ent_psucc(pair, y_star), params={"y": y_star})


def side_ent_optimal_numeric(pair: ChannelPair) -> tuple[float, float]:
    return maximize_scalar(lambda ys: 0.5 + 0.25 * side_ent_gain_expression(pair, ys), 0.0, 1.0)


def _side_ent_optimal_batch(pairs: PairArrays) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form optimal reference weight for column pairs: (y*, psucc), one entry per row.

    The success probability comes from the closed-form separation rather than
    the Kraus construction, so it may differ from side_ent_optimal by rounding.
    """
    g = (np.cos(pairs.eta1) + np.cos(pairs.eta0))[:, 0]
    ratio = (g - 1.0) / np.where(g < 2.0, g - 2.0, -1.0)
    y_star = np.where((g < 2.0) & (ratio > 0.0), ratio, 0.0)
    psucc = 0.5 + 0.25 * side_ent_gain_expression(pairs, y_star[:, None])[:, 0]
    return y_star, _checked_psucc(psucc)


# ---------------------------------------------------------------------------
# single use, environment feedback


def feedback_conditional_states(ch: DampingChannel, x: float, alpha: float) -> tuple[tuple, tuple]:
    """Project the dilation output on an environment basis tilted by alpha.

    The basis is (cos a, sin a) / (-sin a, cos a).  Returns one branch per
    basis vector, (state, probability): the normalized conditional system
    state and the outcome probability.  A branch whose probability is below
    tolerance carries no state (None).
    """
    if not 0.0 <= alpha <= math.pi / 2:
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha}")
    psi = InputState(x).ket()
    joint = ch.dilation_unitary() @ np.kron(psi, np.array([1.0, 0.0]))
    env0 = joint[0::2]  # system amplitudes with environment in |0>
    env1 = joint[1::2]
    ca, sa = math.cos(alpha), math.sin(alpha)

    def branch(raw: np.ndarray) -> tuple[np.ndarray | None, float]:
        norm = float(np.linalg.norm(raw))
        probability = norm * norm
        return (None if probability < ZERO_BRANCH_TOL else raw / norm), probability

    return branch(ca * env0 + sa * env1), branch(-sa * env0 + ca * env1)


def feedback_psucc(pair: ChannelPair, x: float, alpha: float) -> float:
    """Environment-outcome-conditioned discrimination, built from the branches.

    Each environment outcome is followed by the optimal equal-prior
    measurement between the two conditional pure states; outcomes of
    probability zero contribute nothing, and an outcome reachable under only
    one hypothesis identifies the channel outright.
    """
    total = 0.0
    for (s0, p0), (s1, p1) in zip(
        feedback_conditional_states(pair.channel0, x, alpha),
        feedback_conditional_states(pair.channel1, x, alpha),
    ):
        weight = 0.5 * (p0 + p1)
        if weight <= ZERO_BRANCH_TOL:
            continue
        if s0 is None or s1 is None:
            total += weight  # only one hypothesis can produce this outcome
        else:
            total += weight * pure_state_psucc(s0, s1)
    return total


def _feedback_values_batch(pair: ChannelPair, x, alpha) -> np.ndarray:
    """Same protocol value as feedback_psucc, vectorized over (x, alpha)."""
    xs, als = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(alpha, dtype=float))
    s0, c0 = math.sin(pair.eta0), math.cos(pair.eta0)
    s1, c1 = math.sin(pair.eta1), math.cos(pair.eta1)
    dc_sq = (c1 - c0) ** 2
    sd_sq = math.sin(pair.eta0 - pair.eta1) ** 2
    ca2 = np.cos(als) ** 2
    sa2 = np.sin(als) ** 2

    def branch(csq: np.ndarray, ssq: np.ndarray) -> np.ndarray:
        # csq/ssq are cos^2/sin^2 of alpha for this branch; the Gram
        # determinant of the two unnormalized conditional states reduces, for
        # two-component vectors, to the squared modulus of their 2x2
        # determinant, which avoids the cancellation of norms minus overlap
        n0sq = csq * (1.0 - xs * s0 * s0) + ssq * xs * s0 * s0
        n1sq = csq * (1.0 - xs * s1 * s1) + ssq * xs * s1 * s1
        gram = csq * xs * (csq * (1.0 - xs) * dc_sq + ssq * xs * sd_sq)
        prod = n0sq * n1sq
        weight = 0.5 * (n0sq + n1sq)
        safe = prod > ZERO_BRANCH_TOL * ZERO_BRANCH_TOL
        scaled = np.sqrt(np.clip(gram, 0.0, None) / np.where(safe, prod, 1.0))
        return np.where(safe, 0.5 * weight + 0.25 * (n0sq + n1sq) * np.minimum(scaled, 1.0), weight)

    return branch(ca2, sa2) + branch(sa2, ca2)


def feedback_terms(pair: ChannelPair, x: float, alpha: float) -> FeedbackTerms:
    """Scalar ingredients of the printed feedback formula."""
    s0sq, s1sq = math.sin(pair.eta0) ** 2, math.sin(pair.eta1) ** 2
    c0, c1 = math.cos(pair.eta0), math.cos(pair.eta1)
    s0, s1 = math.sin(pair.eta0), math.sin(pair.eta1)
    c2a = math.cos(2.0 * alpha)
    chi = 0.5 - 0.5 * c2a * (1.0 - x * (s0sq + s1sq))
    mu = 1.0 + (2.0 * x - 1.0) * c0 * c1 + s0 * s1
    nu = c2a * ((2.0 * x - 1.0) + c0 * c1 + (2.0 * x - 1.0) * s0 * s1)
    cc0 = 0.5 - 0.5 * c2a * (1.0 - 2.0 * x * s0sq)
    cc1 = 0.5 - 0.5 * c2a * (1.0 - 2.0 * x * s1sq)
    return FeedbackTerms(chi=chi, mu=mu, nu=nu, c0=cc0, c1=cc1)


def feedback_psucc_closed_form(pair: ChannelPair, x: float, alpha: float) -> float:
    """Printed closed form of the feedback success probability.

    Only defined away from degenerate branch probabilities (both outcome
    likelihoods strictly inside (0, 1)); the constructed feedback_psucc is
    authoritative elsewhere.
    """
    t = feedback_terms(pair, x, alpha)
    if min(t.c0, t.c1, 1.0 - t.c0, 1.0 - t.c1) < 1e-9:
        raise ValueError("branch probability too close to 0 or 1 for the closed form")
    half_sin = math.sin((pair.eta0 - pair.eta1) / 2.0)
    first = 0.5 * t.chi * (
        1.0
        + math.sin(alpha) * half_sin * math.sqrt(max(x * (t.mu + t.nu), 0.0) / (t.c0 * t.c1))
    )
    second = 0.5 * (1.0 - t.chi) * (
        1.0
        + math.cos(alpha)
        * half_sin
        * math.sqrt(max(x * (t.mu - t.nu), 0.0) / ((1.0 - t.c0) * (1.0 - t.c1)))
    )
    return first + second


def feedback_optimal(pair: ChannelPair) -> StrategyResult:
    """Best over probe weight and environment basis: excited probe, balanced basis."""
    psucc = 0.5 * (1.0 + math.sin(pair.eta0 - pair.eta1))
    return StrategyResult(psucc=psucc, params={"x": 1.0, "alpha": math.pi / 4})


def feedback_optimal_numeric(pair: ChannelPair) -> tuple[float, float, float]:
    """Coordinate-ascent maximization over (x, alpha); returns (x, alpha, value).

    Seeded by a coarse joint grid; equivalent mirrored maxima in alpha resolve
    to the smallest alpha through the first-maximum convention of the scans.
    """
    xs = np.linspace(0.0, 1.0, 33)
    als = np.linspace(0.0, math.pi / 2, 33)
    coarse = _feedback_values_batch(pair, xs[:, None], als[None, :])
    i, j = np.unravel_index(int(np.argmax(coarse)), coarse.shape)
    best_x, best_alpha = float(xs[i]), float(als[j])
    best_val = float(coarse[i, j])
    for _ in range(FEEDBACK_ASCENT_ROUNDS):
        x_new, val = maximize_scalar(
            lambda t: _feedback_values_batch(pair, t, best_alpha),
            0.0,
            1.0,
            grid_points=FEEDBACK_GRID_POINTS,
        )
        if val > best_val:
            best_x, best_val = x_new, val
        alpha_new, val = maximize_scalar(
            lambda t: _feedback_values_batch(pair, best_x, t),
            0.0,
            math.pi / 2,
            grid_points=FEEDBACK_GRID_POINTS,
        )
        if val > best_val:
            best_alpha, best_val = alpha_new, val
    return best_x, best_alpha, best_val


# ---------------------------------------------------------------------------
# two uses, entangled or product probes, collective measurement


def two_shot_entangled_outputs(pair: ChannelPair, variant: str, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Outputs of the two-probe entangled input, each probe through its own use."""
    return tuple(ch.two_shot_entangled_output(variant, x) for ch in (pair.channel0, pair.channel1))


def two_shot_entangled_psucc(pair: ChannelPair, variant: str, x: float) -> float:
    """Collective discrimination of the two-probe entangled input outputs."""
    return helstrom_psucc(*two_shot_entangled_outputs(pair, variant, x))


def _two_shot_ent_values_batch(pair: ChannelPair, variant: str, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    delta = np.zeros(xs.shape + (4, 4))
    root = np.sqrt(np.clip(xs * (1.0 - xs), 0.0, None))
    if variant == "odd":
        for sign, eta in ((1.0, pair.eta0), (-1.0, pair.eta1)):
            c2, s2 = math.cos(eta) ** 2, math.sin(eta) ** 2
            delta[..., 0, 0] += sign * s2
            delta[..., 1, 1] += sign * (1.0 - xs) * c2
            delta[..., 2, 2] += sign * xs * c2
            off = sign * c2 * root
            delta[..., 1, 2] += off
            delta[..., 2, 1] += off
    elif variant == "even":
        for sign, eta in ((1.0, pair.eta0), (-1.0, pair.eta1)):
            c2, s2 = math.cos(eta) ** 2, math.sin(eta) ** 2
            delta[..., 0, 0] += sign * ((1.0 - xs) + xs * s2 * s2)
            delta[..., 1, 1] += sign * xs * c2 * s2
            delta[..., 2, 2] += sign * xs * c2 * s2
            delta[..., 3, 3] += sign * xs * c2 * c2
            off = sign * c2 * root
            delta[..., 0, 3] += off
            delta[..., 3, 0] += off
    else:
        raise ValueError(f"variant must be 'odd' or 'even', got {variant!r}")
    return 0.5 + 0.25 * np.abs(np.linalg.eigvalsh(delta)).sum(axis=-1)


def two_shot_entangled_optimal(pair: ChannelPair, variant: str) -> StrategyResult:
    """Best probe weight for an entangled two-probe input, collective measurement.

    The ``odd`` objective does not depend on x: the output difference is
    sin^2 eta0 - sin^2 eta1 on |00> plus cos^2 eta0 - cos^2 eta1 times a
    rank-one projector, so every x gives (1 + sin^2 eta0 - sin^2 eta1)/2.  It
    is reported at x = 0, where ``maximize_scalar`` puts a constant objective.
    """
    if variant == "odd":
        psucc = 0.5 * (1.0 + math.sin(pair.eta0 - pair.eta1) * math.sin(pair.eta0 + pair.eta1))
        return StrategyResult(psucc=psucc, params={"x": 0.0})
    x_star, psucc = maximize_scalar(
        lambda xs: _two_shot_ent_values_batch(pair, variant, xs),
        0.0,
        1.0,
        grid_points=TWO_SHOT_GRID_POINTS,
    )
    return StrategyResult(psucc=psucc, params={"x": x_star})


def two_shot_product_outputs(pair: ChannelPair, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Outputs of the twice-repeated bare probe: rho (x) rho under each hypothesis."""
    rho0, rho1 = pair.output_pair(x)
    return np.kron(rho0, rho0), np.kron(rho1, rho1)


def two_shot_product_psucc(pair: ChannelPair, x: float) -> float:
    """Collective discrimination of the twice-repeated bare probe outputs."""
    return helstrom_psucc(*two_shot_product_outputs(pair, x))


def _product_delta_batch(pair: ChannelPair | PairArrays, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    shape = np.broadcast_shapes(np.shape(pair.eta0), xs.shape)
    delta = np.zeros(shape + (4, 4))
    for sign, eta in ((1.0, pair.eta0), (-1.0, pair.eta1)):
        a, b, d = _output_entries(eta, xs)
        rho = np.empty(shape + (2, 2))
        rho[..., 0, 0] = a
        rho[..., 0, 1] = rho[..., 1, 0] = b
        rho[..., 1, 1] = d
        delta += sign * np.einsum("...ij,...kl->...ikjl", rho, rho).reshape(shape + (4, 4))
    return delta


def _two_shot_product_values_batch(pair: ChannelPair | PairArrays, xs: np.ndarray) -> np.ndarray:
    delta = _product_delta_batch(pair, xs)
    return 0.5 + 0.25 * np.abs(np.linalg.eigvalsh(delta)).sum(axis=-1)


def _two_copy_blocks(a, b, d) -> tuple:
    """rho (x) rho for rho = [[a, b], [b, d]], split by Schur-Weyl duality.

    The N = 2 case of det(rho)^(N/2 - j) Sym^(2j)(rho) on spin j: the singlet
    (j = 0) carries det rho, the triplet (j = 1) the symmetric square, given
    as its upper entries (00, 01, 02, 11, 12, 22) in the Dicke basis |00>,
    (|01> + |10>)/sqrt 2, |11>.
    """
    return a * d - b * b, (a * a, SQRT2 * a * b, b * b, a * d + b * b, SQRT2 * b * d, d * d)


def _trace_norm_sym3(m00, m01, m02, m11, m12, m22) -> np.ndarray:
    """Trace norm of real symmetric 3x3 matrices given by their upper entries.

    The extreme eigenvalues come from the trigonometric formula (O. K. Smith,
    CACM 4, 168, 1961): with q = tr/3, p^2 = tr((A - qI)^2)/6 and
    phi = acos(det((A - qI)/p)/2)/3, they are q + 2p cos(phi) and
    q + 2p cos(phi + 2pi/3).  With e1 = tr, the trace norm is max(|e1|,
    2 lmax - e1, e1 - 2 lmin), one term per sign pattern; it never needs the
    middle eigenvalue, the one that a degenerate pair leaves ill-conditioned.
    """
    q = (m00 + m11 + m22) / 3.0
    b00, b11, b22 = m00 - q, m11 - q, m22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (m01 * m01 + m02 * m02 + m12 * m12)) / 6.0)
    inv = 1.0 / np.where(p > 0.0, p, 1.0)  # p = 0: A = qI, every term below is 0
    b00, b11, b22, n01, n02, n12 = b00 * inv, b11 * inv, b22 * inv, m01 * inv, m02 * inv, m12 * inv
    half_det = 0.5 * (
        b00 * b11 * b22 + 2.0 * n01 * n12 * n02 - b00 * n12 * n12 - b11 * n02 * n02 - b22 * n01 * n01
    )
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    lmax = q + 2.0 * p * np.cos(phi)
    lmin = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    e1 = 3.0 * q
    return np.maximum(np.abs(e1), np.maximum(2.0 * lmax - e1, e1 - 2.0 * lmin))


def _two_shot_product_scan(pair: ChannelPair | PairArrays, xs: np.ndarray) -> np.ndarray:
    """``_two_shot_product_values_batch`` from the two-copy blocks, without an eigensolver.

    rho0 (x) rho0 - rho1 (x) rho1 commutes with the swap, so its trace norm is
    |det rho0 - det rho1| plus the trace norm of the triplet-block difference.
    It agrees with the 4x4 route to rounding (5.6e-16 on edge and
    near-diagonal cells); the optima use it to scan their grid and keep the
    4x4 route for everything they report.
    """
    singlet0, triplet0 = _two_copy_blocks(*_output_entries(pair.eta0, xs))
    singlet1, triplet1 = _two_copy_blocks(*_output_entries(pair.eta1, xs))
    triplet = _trace_norm_sym3(*(u - v for u, v in zip(triplet0, triplet1)))
    return 0.5 + 0.25 * (np.abs(singlet0 - singlet1) + triplet)


def _schmidt_second_singular_values(delta: np.ndarray) -> list[float]:
    dec = hermitian_eig(delta)
    out = []
    for k in range(4):
        amp = dec.vector(k).reshape(2, 2)
        out.append(float(np.linalg.svd(amp, compute_uv=False)[1]))
    return out


def two_shot_product_optimal(pair: ChannelPair) -> StrategyResult:
    """Optimal probe weight for the repeated bare probe, collective measurement.

    The measurement description reports whether all four optimal-measurement
    eigenvectors are product states (second Schmidt coefficient below
    tolerance), i.e. whether the collective measurement is secretly local.
    """
    (x_star,), (psucc,) = _two_shot_product_optimal_batch(PairArrays.of(pair))
    seconds = _schmidt_second_singular_values(_product_delta_batch(pair, np.asarray(x_star)))
    local = all(s <= SCHMIDT_PRODUCT_TOL for s in seconds)
    return StrategyResult(
        psucc=float(psucc),
        params={"x": float(x_star)},
        measurement={"local": local, "second_schmidt_coefficients": tuple(seconds)},
    )


def _two_shot_product_optimal_batch(pairs: PairArrays) -> tuple[np.ndarray, np.ndarray]:
    """Two-probe collective optimum for column pairs: (x*, psucc), one entry per row.

    The grid is scanned on the two-copy blocks, the refinement runs on the 4x4
    route, and a flat objective (indistinguishable pair) pins x* = 1.
    """
    x_star, psucc = maximize_scalar_cells(
        lambda idx, xs: _two_shot_product_values_batch(pairs.take(idx), xs),
        len(pairs.eta0),
        0.0,
        1.0,
        grid_points=TWO_SHOT_GRID_POINTS,
        scan=lambda idx, xs: _two_shot_product_scan(pairs.take(idx), xs),
    )
    _checked_psucc(psucc)
    return np.where(psucc - 0.5 <= PSUCC_SLACK, 1.0, x_star), psucc


# ---------------------------------------------------------------------------
# two uses, individual measurements, outcome-driven second step


def _two_stage_value(rho0: np.ndarray, rho1: np.ndarray, first_effect: np.ndarray) -> float:
    """First copy measured with (M, I - M), second by the outcome-weighted Helstrom measurement.

    With r0 = Tr rho0 M and s0 = Tr rho1 M the value is 1/2 + (|| r0 rho0 -
    s0 rho1 ||_1 + || (1 - s0) rho1 - (1 - r0) rho0 ||_1) / 4, which absorbs
    the posterior normalizations and stays finite for impossible outcomes.
    """
    r0 = float(np.trace(rho0 @ first_effect).real)
    s0 = float(np.trace(rho1 @ first_effect).real)
    return 0.5 + 0.25 * (
        trace_norm(r0 * rho0 - s0 * rho1) + trace_norm((1.0 - s0) * rho1 - (1.0 - r0) * rho0)
    )


def adaptive_forward_psucc(pair: ChannelPair, x: float) -> float:
    """First copy measured on the eigenbasis of rho0 - rho1, second reweighted by the outcome.

    This is the backward strategy with its first effect fixed at FORWARD_T.
    """
    return _forward_two_stage_value(*pair.output_pair(x))


def _forward_two_stage_value(rho0: np.ndarray, rho1: np.ndarray) -> float:
    """``adaptive_forward_psucc`` on outputs the caller has built."""
    return _two_stage_value(rho0, rho1, helstrom(rho0, rho1).projector_plus)


def _adaptive_forward_values_batch(pair: ChannelPair | PairArrays, xs: np.ndarray) -> np.ndarray:
    entries = _output_entries(pair.eta0, xs) + _output_entries(pair.eta1, xs)
    return _backward_values_batch(entries, FORWARD_T)


def adaptive_forward_optimal(pair: ChannelPair) -> StrategyResult:
    (x_star,), (psucc,) = _adaptive_forward_optimal_batch(PairArrays.of(pair))
    return StrategyResult(psucc=float(psucc), params={"x": float(x_star)})


def _adaptive_forward_optimal_batch(pairs: PairArrays) -> tuple[np.ndarray, np.ndarray]:
    """Forward adaptive optimum for column pairs: (x*, psucc), one entry per row."""
    x_star, psucc = maximize_scalar_cells(
        lambda idx, xs: _adaptive_forward_values_batch(pairs.take(idx), xs),
        len(pairs.eta0),
        0.0,
        1.0,
    )
    return x_star, _checked_psucc(psucc)


# ---------------------------------------------------------------------------
# two uses, individual measurements, environment feedback on each copy


def _balanced_feedback_branches(pair: ChannelPair) -> list[tuple]:
    """(state0, p0, state1, p1) per environment outcome at the feedback optimum.

    Probe fully excited, environment basis balanced; both outcomes are
    reachable under both hypotheses there.
    """
    optimum = feedback_optimal(pair).params
    branches = [
        (s0, p0, s1, p1)
        for (s0, p0), (s1, p1) in zip(
            feedback_conditional_states(pair.channel0, **optimum),
            feedback_conditional_states(pair.channel1, **optimum),
        )
    ]
    if any(s0 is None or s1 is None for s0, _, s1, _ in branches):
        raise ArithmeticError("conditional branch unexpectedly empty")
    return branches


def adaptive_feedback_psucc(pair: ChannelPair) -> float:
    """Two copies, each with environment feedback, outcome-reweighted second step.

    Probe fixed fully excited and environment basis balanced (the single-copy
    feedback optimum); every stage then deals in pure conditional states.
    """
    branches = _balanced_feedback_branches(pair)
    total = 0.0
    for phi0_first, w0_first, phi1_first, w1_first in branches:
        dec = hermitian_eig(projector(phi0_first) - projector(phi1_first))
        for k in range(2):
            v = dec.vector(k)
            joint0 = 0.5 * w0_first * abs(np.vdot(v, phi0_first)) ** 2
            joint1 = 0.5 * w1_first * abs(np.vdot(v, phi1_first)) ** 2
            for phi0_second, w0_second, phi1_second, w1_second in branches:
                u0 = joint0 * w0_second
                u1 = joint1 * w1_second
                gap = trace_norm(u0 * projector(phi0_second) - u1 * projector(phi1_second))
                total += 0.5 * (u0 + u1 + gap)
    return total


def adaptive_feedback_closed_form(pair: ChannelPair) -> float:
    """Two feedback-assisted copies: (1 + sin d sqrt(1 + cos^2 d)) / 2, d = eta0 - eta1.

    This equals (1 + sqrt(1 - cos^4 d)) / 2, the two-copy Helstrom value for
    pure states of overlap cos d.
    """
    d = pair.eta0 - pair.eta1
    return 0.5 * (1.0 + math.sin(d) * math.sqrt(1.0 + math.cos(d) ** 2))


# ---------------------------------------------------------------------------
# two uses, individual measurements, first step a general two-outcome effect


def _backward_values_batch(entries: np.ndarray, t) -> np.ndarray:
    """Backward value with first effect P+(cos t rho0 - sin t rho1).

    ``entries`` holds the ``_output_entries`` of both outputs, (a0, b0, d0,
    a1, b1, d1), as a tuple or stacked on axis 0; the probe weights broadcast
    against t.  P+ projects on the nonnegative eigenspace of
    W = cos t rho0 - sin t rho1, zero eigenvalues included as in ``helstrom``.
    With h = (W00 - W11)/2 and r = hypot(h, W01), a W with one eigenvalue of
    each sign has Tr rho P+ = 1/2 + (h/r)(rho00 - rho11)/2 + (W01/r) rho01;
    otherwise P+ is I (W >= 0) or 0 (W < 0).
    """
    a0, b0, d0, a1, b1, d1 = entries
    ct, st = np.cos(t), np.sin(t)
    h = 0.5 * (ct * (a0 - d0) - st * (a1 - d1))
    w01 = ct * b0 - st * b1
    r = np.hypot(h, w01)
    half_trace = 0.5 * (ct - st)
    mixed = (half_trace - r < 0.0) & (half_trace + r >= 0.0)
    corner = np.where(half_trace - r >= 0.0, 1.0, 0.0)
    hz = h / np.where(mixed, r, 1.0)
    hx = w01 / np.where(mixed, r, 1.0)
    r0 = np.where(mixed, 0.5 + 0.5 * hz * (a0 - d0) + hx * b0, corner)
    s0 = np.where(mixed, 0.5 + 0.5 * hz * (a1 - d1) + hx * b1, corner)

    # _two_stage_value on the real 2x2 entries: both operators have trace r0 - s0
    tr = r0 - s0
    m00 = r0 * a0 - s0 * a1
    m01 = r0 * b0 - s0 * b1
    m11 = r0 * d0 - s0 * d1
    first = _trace_norm_2x2(tr, m00 * m11 - m01 * m01)
    k00 = (1.0 - s0) * a1 - (1.0 - r0) * a0
    k01 = (1.0 - s0) * b1 - (1.0 - r0) * b0
    k11 = (1.0 - s0) * d1 - (1.0 - r0) * d0
    second = _trace_norm_2x2(-tr, k00 * k11 - k01 * k01)
    return 0.5 + 0.25 * (first + second)


def _projector_values_batch(bloch: np.ndarray, theta) -> np.ndarray:
    """Backward value with first effect the real projector of Bloch angle theta.

    ``bloch`` holds the Bloch vectors n = (a - d, 2b) of both outputs,
    (z0, x0, z1, x1), stacked on axis 0; they broadcast against theta.  The
    effect P = (I + cos theta Z + sin theta X)/2 gives r0 = Tr rho0 P =
    (1 + n0.u)/2 and s0 = Tr rho1 P = (1 + n1.u)/2, u = (cos theta, sin theta).
    Both operators of ``_two_stage_value`` then have the form (tr I + v.sigma)/2
    with tr = r0 - s0, whose trace norm is max(|tr|, |v|): v = A = r0 n0 - s0 n1
    for the first and v = A - D, D = n0 - n1, for the second.
    """
    z0, x0, z1, x1 = bloch
    uz, ux = np.cos(theta), np.sin(theta)
    r0 = 0.5 * (1.0 + z0 * uz + x0 * ux)
    s0 = 0.5 * (1.0 + z1 * uz + x1 * ux)
    tr = np.abs(r0 - s0)
    az = r0 * z0 - s0 * z1
    ax = r0 * x0 - s0 * x1
    first = np.maximum(tr, np.hypot(az, ax))
    second = np.maximum(tr, np.hypot(z0 - z1 - az, x0 - x1 - ax))
    return 0.5 + 0.25 * (first + second)


def _backward_first_step(pair: ChannelPair | PairArrays, xs) -> tuple[np.ndarray, np.ndarray]:
    """Best first-effect Bloch angle at each probe weight: (theta*, value) per cell.

    The cells are the pair angles broadcast against ``xs`` (a PairArrays of
    shape (m, 1) against xs of shape (1, k) gives an (m, k) block), and all
    of them are searched in one ``maximize_scalar_cells`` pass (one cell, as
    in a point query, takes its scalar loop).  The backward value depends on
    the first effect M only through (Tr rho0 M, Tr rho1 M) and is convex
    there, so its maximum over all effects sits on an extreme point of the
    reachable set: a projector
    P+(cos t rho0 - sin t rho1), t in [0, pi/2], or its complement, which
    scores the same (quantum Neyman-Pearson; Helstrom 1976).  Where that W
    has one eigenvalue of each sign, P+ projects on the Bloch direction of
    cos t n0 - sin t n1, which lies on the arc from n0 to -n1; where W is
    definite, P+ is I or 0, which score no more than any projector.  So the
    search runs over the real projectors on that arc, theta = start + tau
    span with tau in [0, 1], where the value is continuous in tau.  The
    forward strategy's effect P+(rho0 - rho1) is one more candidate, scored
    by its own kernel, and wins ties, so backward never falls below forward.
    """
    xs = np.asarray(xs, dtype=float)
    cells = np.broadcast_arrays(*_output_entries(pair.eta0, xs), *_output_entries(pair.eta1, xs))
    entries = np.stack([c.ravel() for c in cells])
    a0, b0, d0, a1, b1, d1 = entries
    bloch = np.stack([a0 - d0, 2.0 * b0, a1 - d1, 2.0 * b1])
    start = np.arctan2(bloch[1], bloch[0])
    span = np.mod(np.arctan2(-bloch[3], -bloch[2]) - start + math.pi, 2.0 * math.pi) - math.pi
    tau, value = maximize_scalar_cells(
        lambda idx, taus: _projector_values_batch(
            bloch[:, idx, None], start[idx, None] + taus * span[idx, None]
        ),
        entries.shape[1],
        0.0,
        1.0,
        grid_points=BACKWARD_ARC_GRID_POINTS,
    )
    forward = _backward_values_batch(entries, FORWARD_T)
    theta_forward = np.arctan2(bloch[1] - bloch[3], bloch[0] - bloch[2])
    use_forward = forward >= value
    theta = np.where(use_forward, theta_forward, start + tau * span)
    value = np.where(use_forward, forward, value)
    return theta.reshape(cells[0].shape), value.reshape(cells[0].shape)


def _backward_povm(outputs: tuple, theta: float) -> tuple[Povm, float]:
    """The checked first-copy POVM (P, I - P), P the real projector at Bloch angle theta.

    Returns it with its value on ``outputs``, the pair (rho0, rho1).
    """
    effect = projector(np.array([math.cos(0.5 * theta), math.sin(0.5 * theta)]))
    povm = Povm(effects=(effect, np.eye(2) - effect))
    return povm, _two_stage_value(*outputs, effect)


def _backward_scored(pairs: PairArrays, xs, thetas) -> np.ndarray:
    """Backward value of each column pair at its (x, theta), scored on its POVM."""
    return np.array(
        [
            _backward_povm(pair.output_pair(x), th)[1]
            for pair, x, th in zip(pairs.channel_pairs(), xs, thetas)
        ]
    )


def backward_adaptive_measurement(
    pair: ChannelPair, x: float, outputs: tuple | None = None
) -> tuple[Povm, float]:
    """Best first-copy two-outcome effect, second step outcome-reweighted.

    The effect is the real projector whose Bloch angle ``_backward_first_step``
    finds on the arc from n0 to -n1; the value is scored on that checked
    POVM.  The search includes the forward strategy's first measurement, so
    the result never falls below the forward strategy at the same probe weight.
    ``outputs`` is ``pair.output_pair(x)`` when the caller has built it already.
    """
    (theta_star,), _ = _backward_first_step(pair, np.array([x]))
    return _backward_povm(outputs or pair.output_pair(x), theta_star)


def backward_adaptive_psucc(pair: ChannelPair, x: float) -> float:
    return backward_adaptive_measurement(pair, x)[1]


def _backward_adaptive_optimal_batch(pairs: PairArrays) -> tuple[np.ndarray, np.ndarray]:
    """Best probe weight for the backward strategy, column pairs: (x*, value) per row.

    Each golden step over x runs one first-step search over every row still
    refining.  The value at x* is scored on the checked POVM at the angle a
    last batched first step finds there; a row's first step does not depend
    on the rows searched beside it, so that angle is the one the x search saw.
    """
    x_star, _ = maximize_scalar_cells(
        lambda idx, xs: _backward_first_step(pairs.take(idx), xs)[1],
        len(pairs.eta0),
        0.0,
        1.0,
        grid_points=BACKWARD_X_GRID_POINTS,
        tol=BACKWARD_X_TOL,
    )
    theta_star, _ = _backward_first_step(pairs, x_star[:, None])
    return x_star, _checked_psucc(_backward_scored(pairs, x_star, theta_star[:, 0]))


def backward_adaptive_optimal(pair: ChannelPair) -> tuple[float, float]:
    """Best probe weight for the backward strategy: (x*, value)."""
    x_star, value = _backward_adaptive_optimal_batch(PairArrays.of(pair))
    return float(x_star[0]), float(value[0])


def _fwd_bwd_difference_batch(pairs: PairArrays) -> np.ndarray:
    """fwd_bwd_difference for column pairs, one entry per row.

    Backward counts with its value at the forward optimum's probe weight too,
    since its own x search may stop on a lower local maximum.
    """
    x_fwd, forward = _adaptive_forward_optimal_batch(pairs)
    _, backward = _backward_adaptive_optimal_batch(pairs)
    theta_fwd, _ = _backward_first_step(pairs, x_fwd[:, None])
    return forward - np.maximum(backward, _backward_scored(pairs, x_fwd, theta_fwd[:, 0]))


def fwd_bwd_difference(pair: ChannelPair) -> float:
    """max-over-x forward value minus max-over-x backward value (signed)."""
    return float(_fwd_bwd_difference_batch(PairArrays.of(pair))[0])


# ---------------------------------------------------------------------------
# two uses in sequence


def sequential_effective_pair(pair: ChannelPair) -> ChannelPair:
    """Damping twice equals damping once with squared survival amplitude."""
    return ChannelPair(
        eta0=math.acos(min(1.0, math.cos(pair.eta0) ** 2)),
        eta1=math.acos(min(1.0, math.cos(pair.eta1) ** 2)),
    )


def sequential_outputs(pair: ChannelPair, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Outputs of one probe sent through both copies back to back."""
    rho0, rho1 = pair.output_pair(x)
    return pair.channel0.apply(rho0), pair.channel1.apply(rho1)


def sequential_two_shot_psucc(pair: ChannelPair, x: float) -> float:
    """Both copies applied back to back to one probe, then a single measurement."""
    return helstrom_psucc(*sequential_outputs(pair, x))


def sequential_two_shot_optimal(pair: ChannelPair) -> StrategyResult:
    """The one-shot closed-form optimum of the effective single channel."""
    return one_shot_optimal(sequential_effective_pair(pair))
