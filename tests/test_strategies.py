"""Strategy-level checks: frozen optima, closed form vs construction, orderings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampdisc import strategies
from dampdisc.channel import DampingChannel, InputState
from dampdisc.discrimination import PriorPair, helstrom, helstrom_psucc, maximize_scalar, maximize_scalar_cells
from dampdisc.linalg import hermitian_eig, trace_norm
from dampdisc.strategies import (
    ChannelPair,
    PairArrays,
    PolarCurvePoint,
    StrategyResult,
    adaptive_feedback_closed_form,
    adaptive_feedback_psucc,
    adaptive_forward_optimal,
    adaptive_forward_psucc,
    backward_adaptive_measurement,
    backward_adaptive_optimal,
    backward_adaptive_psucc,
    damping_polar_curve,
    feedback_conditional_states,
    feedback_optimal,
    feedback_optimal_numeric,
    feedback_params,
    feedback_psucc,
    feedback_psucc_closed_form,
    feedback_terms,
    fwd_bwd_difference,
    one_shot_optimal,
    one_shot_optimal_numeric,
    one_shot_psucc,
    one_shot_psucc_numeric,
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
from dampdisc.strategies import (
    _adaptive_forward_optimal_batch,
    _adaptive_forward_values_batch,
    _backward_adaptive_optimal_batch,
    _backward_first_step,
    _backward_values_batch,
    _checked_psucc,
    _feedback_values_batch,
    _fwd_bwd_difference_batch,
    _output_entries,
    _side_ent_optimal_batch,
    _two_shot_ent_values_batch,
    _two_shot_product_optimal_batch,
    _two_shot_product_scan,
    _two_shot_product_values_batch,
    _two_stage_value,
)

HALF_PI = math.pi / 2

SAMPLE_PAIRS = [
    ChannelPair(HALF_PI, math.pi / 3),
    ChannelPair(1.45, 1.15),
    ChannelPair(1.2, 0.4),
    ChannelPair(0.9, 0.3),
    ChannelPair(0.6, 0.1),
    ChannelPair(1.5, 0.0),
]



def seeded_pairs(n: int, seed: int) -> PairArrays:
    """n ordered column pairs: half uniform, a quarter near-diagonal (gaps
    1e-10 to 1e-1), a quarter with one angle on an edge 0, pi/4 or pi/2."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.0, HALF_PI, n), rng.uniform(0.0, HALF_PI, n)
    near = slice(n // 2, 3 * n // 4)
    b[near] = np.clip(a[near] - 10.0 ** rng.uniform(-10.0, -1.0, n // 4), 0.0, None)
    edge = slice(3 * n // 4, n)
    a[edge] = rng.choice([0.0, math.pi / 4, HALF_PI], n - 3 * n // 4)
    return PairArrays.columns(np.maximum(a, b), np.minimum(a, b))


angle_st = st.floats(min_value=0.0, max_value=HALF_PI, allow_nan=False)
unit_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestChannelPair:
    def test_orders_angles(self):
        pair = ChannelPair(0.3, 1.2)
        assert pair.eta0 == 1.2 and pair.eta1 == 0.3

    def test_keeps_ordered_angles(self):
        pair = ChannelPair(1.2, 0.3)
        assert pair.eta0 == 1.2 and pair.eta1 == 0.3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ChannelPair(-0.1, 0.2)
        with pytest.raises(ValueError):
            ChannelPair(0.2, 2.0)

    def test_gamma(self):
        pair = ChannelPair(HALF_PI, 0.0)
        assert pair.gamma == pytest.approx(1.0, abs=1e-15)


class TestResultTypes:
    def test_psucc_range_enforced(self):
        with pytest.raises(ValueError):
            StrategyResult(psucc=0.4, params={})
        with pytest.raises(ValueError):
            StrategyResult(psucc=1.1, params={})

    def test_polar_point_range(self):
        with pytest.raises(ValueError):
            PolarCurvePoint(theta=-0.1, radius=0.5)
        with pytest.raises(ValueError):
            PolarCurvePoint(theta=0.1, radius=2.5)


class TestOneShot:
    def test_frozen_optimum(self):
        res = one_shot_optimal(ChannelPair(HALF_PI, math.pi / 3))
        assert res.params["x"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.psucc == pytest.approx(0.6443375672974064, abs=1e-15)

    def test_frozen_excited_probe_value(self):
        pair = ChannelPair(HALF_PI, math.pi / 3)
        assert one_shot_psucc(pair, 1.0) == pytest.approx(0.625, abs=1e-15)
        assert one_shot_psucc_numeric(pair, 1.0) == pytest.approx(0.625, abs=1e-12)

    def test_numeric_matches_closed_optimum(self):
        for pair in SAMPLE_PAIRS:
            closed = one_shot_optimal(pair)
            x_num, val_num = one_shot_optimal_numeric(pair)
            assert val_num == pytest.approx(closed.psucc, abs=1e-10)
            assert x_num == pytest.approx(closed.params["x"], abs=1e-4)

    def test_closed_matches_numeric_pointwise(self):
        for pair in SAMPLE_PAIRS:
            for x in (0.0, 0.25, 0.5, 0.8, 1.0):
                assert one_shot_psucc(pair, x) == pytest.approx(
                    one_shot_psucc_numeric(pair, x), abs=1e-12
                )

    def test_batch_matches_scalar(self):
        pair = ChannelPair(1.3, 0.6)
        xs = np.linspace(0.0, 1.0, 17)
        batch = one_shot_psucc(pair, xs)
        for x, v in zip(xs, batch):
            assert v == pytest.approx(one_shot_psucc_numeric(pair, float(x)), abs=1e-12)

    def test_weak_overlap_branch_boundary(self):
        # where the two survival amplitudes sum to less than 1/sqrt(2) the
        # optimum moves inside; the two branch formulas meet continuously
        pair = ChannelPair(1.5, 1.4)
        assert pair.gamma < 1.0 / math.sqrt(2.0)
        res = one_shot_optimal(pair)
        assert res.params["x"] < 1.0
        grid = float(np.max(one_shot_psucc(pair, np.linspace(0.0, 1.0, 4001))))
        assert res.psucc == pytest.approx(grid, abs=1e-7)

    @given(eta0=angle_st, eta1=angle_st, x=unit_st)
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, eta0, eta1, x):
        val = one_shot_psucc(ChannelPair(eta0, eta1), x)
        assert 0.5 - 1e-12 <= val <= 1.0 + 1e-12


class TestPolarCurve:
    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            damping_polar_curve(0.4, 1)

    def test_endpoints(self):
        pts = damping_polar_curve(math.pi / 3, 9)
        assert pts[0].radius == pytest.approx(0.0, abs=1e-12)
        # fully excited probe against the undamped ground state
        assert pts[-1].radius == pytest.approx(2.0 * math.cos(math.pi / 3) ** 2, abs=1e-12)

    def test_matches_closed_radius(self):
        eta1 = 1.1
        for pt in damping_polar_curve(eta1, 33):
            x = math.sin(pt.theta) ** 2
            closed = 2.0 * math.cos(eta1) * math.sqrt(x * (1.0 - x * math.sin(eta1) ** 2))
            assert pt.radius == pytest.approx(closed, abs=1e-12)

    def test_interior_peak_for_strong_damping(self):
        eta1 = math.pi / 3
        pts = damping_polar_curve(eta1, 2001)
        radii = [p.radius for p in pts]
        k = int(np.argmax(radii))
        assert 0 < k < len(pts) - 1
        x_at_peak = math.sin(pts[k].theta) ** 2
        assert x_at_peak == pytest.approx(1.0 / (2.0 * math.sin(eta1) ** 2), abs=2e-3)

    def test_monotone_peak_at_edge_for_weak_damping(self):
        pts = damping_polar_curve(0.5, 801)
        radii = [p.radius for p in pts]
        assert int(np.argmax(radii)) == len(pts) - 1


class TestSideEntangled:
    def test_reference_free_limit_matches_excited_probe(self):
        for pair in SAMPLE_PAIRS:
            assert side_ent_psucc(pair, 0.0) == pytest.approx(
                one_shot_psucc(pair, 1.0), abs=1e-12
            )

    def test_gain_expression_is_output_separation(self):
        # the closed expression equals the trace norm of the output difference,
        # so psucc = 1/2 + expression / 4
        for pair in SAMPLE_PAIRS:
            for y in (0.0, 0.2, 0.5, 0.8, 1.0):
                expr = side_ent_gain_expression(pair, y)
                assert side_ent_psucc(pair, y) == pytest.approx(
                    0.5 + 0.25 * expr, abs=1e-12
                )
        # column pairs against row weights: one (pairs, weights) block
        ys = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
        pairs = PairArrays.columns([p.eta0 for p in SAMPLE_PAIRS], [p.eta1 for p in SAMPLE_PAIRS])
        block = side_ent_gain_expression(pairs, ys[None, :])
        assert block.shape == (len(SAMPLE_PAIRS), len(ys))
        for i, pair in enumerate(SAMPLE_PAIRS):
            for k, y in enumerate(ys):
                assert side_ent_psucc(pair, float(y)) == pytest.approx(
                    0.5 + 0.25 * block[i, k], abs=1e-12
                )

    def test_batch_matches_scalar(self):
        pair = ChannelPair(1.4, 1.0)
        ys = np.linspace(0.0, 1.0, 21)
        batch = 0.5 + 0.25 * side_ent_gain_expression(pair, ys)
        for y, v in zip(ys, batch):
            assert v == pytest.approx(side_ent_psucc(pair, float(y)), abs=1e-12)

    def test_numeric_argmax_matches_closed(self):
        for pair in SAMPLE_PAIRS:
            closed = side_ent_optimal(pair)
            y_num, val_num = side_ent_optimal_numeric(pair)
            assert y_num == pytest.approx(closed.params["y"], abs=1e-3)
            assert val_num == pytest.approx(closed.psucc, abs=1e-9)

    def test_reference_weight_below_half_and_zero_iff_strong_overlap(self):
        for pair in SAMPLE_PAIRS:
            y_star = side_ent_optimal(pair).params["y"]
            assert y_star < 0.5
            if pair.gamma >= 1.0:
                assert y_star == 0.0
            else:
                assert y_star > 0.0

    def test_degenerate_identity_pair(self):
        res = side_ent_optimal(ChannelPair(0.0, 0.0))
        assert res.params["y"] == 0.0
        assert res.psucc == pytest.approx(0.5, abs=1e-12)

    @given(eta0=angle_st, eta1=angle_st)
    @settings(max_examples=40, deadline=None)
    def test_reference_never_hurts(self, eta0, eta1):
        pair = ChannelPair(eta0, eta1)
        assert side_ent_optimal(pair).psucc >= side_ent_psucc(pair, 0.0) - 1e-12


class TestFeedback:
    def test_frozen_balanced_basis_value(self):
        pair = ChannelPair(HALF_PI, math.pi / 4)
        assert feedback_psucc(pair, 1.0, math.pi / 4) == pytest.approx(
            0.8535533905932737, abs=1e-12
        )

    def test_optimal_closed_form(self):
        pair = ChannelPair(1.2, 0.4)
        res = feedback_optimal(pair)
        assert res.psucc == pytest.approx(0.5 * (1.0 + math.sin(0.8)), abs=1e-15)
        assert res.params == {"x": 1.0, "alpha": math.pi / 4}

    def test_balanced_basis_is_optimal_at_every_x(self):
        # why a given x keeps alpha = pi/4 in feedback_params
        rng = np.random.default_rng(27)
        alphas = np.linspace(0.0, HALF_PI, 2001)
        for eta0, eta1, x in zip(*rng.uniform(0.0, HALF_PI, (2, 200)), rng.uniform(0.0, 1.0, 200)):
            pair = ChannelPair(eta0, eta1)
            best = float(np.max(_feedback_values_batch(pair, x, alphas)))
            assert best <= float(_feedback_values_batch(pair, x, math.pi / 4)) + 1e-12

    def test_params_fill_an_omitted_x_with_its_optimum_at_the_given_alpha(self):
        pair = ChannelPair(1.2853626116987742, 0.18476586493855107)
        alpha = 1.5201928563490097
        params = feedback_params(pair, None, alpha)
        assert params["alpha"] == alpha
        assert params["x"] == pytest.approx(0.698, abs=1e-3)
        assert feedback_psucc(pair, **params) == pytest.approx(0.722642, abs=1e-6)
        assert feedback_psucc(pair, **params) > feedback_psucc(pair, 1.0, alpha) + 0.1

    def test_params_search_nothing_unless_only_alpha_is_given(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("searched although x was given or alpha omitted")

        monkeypatch.setattr(strategies, "maximize_scalar", refuse)
        pair = ChannelPair(1.2, 0.4)
        assert feedback_params(pair, None, None) == feedback_optimal(pair).params
        assert feedback_params(pair, 0.3, None) == {"x": 0.3, "alpha": math.pi / 4}
        assert feedback_params(pair, 0.3, 0.2) == {"x": 0.3, "alpha": 0.2}

    def test_numeric_two_dim_max(self):
        for pair in (ChannelPair(1.2, 0.4), ChannelPair(HALF_PI, math.pi / 3)):
            x, alpha, val = feedback_optimal_numeric(pair)
            assert val == pytest.approx(feedback_optimal(pair).psucc, abs=1e-6)
            assert x == pytest.approx(1.0, abs=2e-3)
            assert alpha == pytest.approx(math.pi / 4, abs=2e-3)

    def test_construction_matches_printed_form(self):
        # regular interior points, away from degenerate branch probabilities
        for pair in (ChannelPair(1.3, 0.5), ChannelPair(1.0, 0.2), ChannelPair(1.5, 1.1)):
            for x in (0.3, 0.6, 0.9):
                for alpha in (0.3, 0.7, 1.1):
                    assert feedback_psucc(pair, x, alpha) == pytest.approx(
                        feedback_psucc_closed_form(pair, x, alpha), abs=1e-9
                    )

    def test_closed_form_rejects_degenerate_branches(self):
        with pytest.raises(ValueError):
            feedback_psucc_closed_form(ChannelPair(0.9, 0.2), 0.0, 0.0)

    def test_batch_matches_scalar(self):
        pair = ChannelPair(1.35, 0.25)
        for x in (0.0, 0.4, 1.0):
            for alpha in (0.0, 0.5, math.pi / 4, HALF_PI):
                assert float(_feedback_values_batch(pair, x, alpha)) == pytest.approx(
                    feedback_psucc(pair, x, alpha), abs=1e-12
                )

    def test_terms_are_branch_probabilities(self):
        pair = ChannelPair(1.2, 0.7)
        x, alpha = 0.6, 0.5
        t = feedback_terms(pair, x, alpha)
        # outcome likelihoods from the conditional branches
        for channel, c in ((pair.channel0, t.c0), (pair.channel1, t.c1)):
            _, (_, p_minus) = feedback_conditional_states(channel, x, alpha)
            assert p_minus == pytest.approx(c, abs=1e-12)
        assert t.chi == pytest.approx(0.5 * (t.c0 + t.c1), abs=1e-12)

    def test_impossible_outcome_identifies_channel(self):
        # fully excited probe through full damping leaves the environment
        # excited for sure; the untilted basis then sees a zero-probability
        # branch for one channel only
        pair = ChannelPair(HALF_PI, math.pi / 3)
        (state_plus, p_plus), _ = feedback_conditional_states(pair.channel0, 1.0, 0.0)
        assert state_plus is None and p_plus == pytest.approx(0.0, abs=1e-24)
        val = feedback_psucc(pair, 1.0, 0.0)
        assert 0.5 - 1e-12 <= val <= 1.0 + 1e-12
        assert float(_feedback_values_batch(pair, 1.0, 0.0)) == pytest.approx(val, abs=1e-12)

    def test_untilted_basis_recovers_plain_discrimination(self):
        # alpha = 0 keeps the environment in the computational basis, which
        # distinguishes exactly as well as discarding it never could; value
        # must still dominate a blind guess
        assert feedback_psucc(ChannelPair(0.8, 0.3), 0.5, 0.0) >= 0.5

    @given(eta0=angle_st, eta1=angle_st, x=unit_st, alpha=st.floats(0.0, HALF_PI))
    @settings(max_examples=40, deadline=None)
    def test_feedback_beats_no_feedback_pointwise(self, eta0, eta1, x, alpha):
        pair = ChannelPair(eta0, eta1)
        val = feedback_psucc(pair, x, alpha)
        assert 0.5 - 1e-9 <= val <= 1.0 + 1e-9


class TestTwoShotEntangled:
    def test_odd_variant_ignores_probe_weight(self):
        for pair in SAMPLE_PAIRS:
            vals = _two_shot_ent_values_batch(pair, "odd", np.linspace(0.0, 1.0, 101))
            assert float(np.ptp(vals)) < 1e-10
            closed = 0.5 * (1.0 + math.sin(pair.eta0) ** 2 - math.sin(pair.eta1) ** 2)
            assert float(vals[0]) == pytest.approx(closed, abs=1e-12)

    def test_scalar_matches_batch(self):
        pair = ChannelPair(1.25, 0.45)
        for variant in ("odd", "even"):
            for x in (0.0, 0.3, 0.7, 1.0):
                assert two_shot_entangled_psucc(pair, variant, x) == pytest.approx(
                    float(_two_shot_ent_values_batch(pair, variant, np.asarray(x))), abs=1e-12
                )

    def test_odd_optimum_is_the_closed_form_at_zero(self):
        for pair in SAMPLE_PAIRS + [ChannelPair(1.0, 0.3), ChannelPair(0.7, 0.7)]:
            res = two_shot_entangled_optimal(pair, "odd")
            assert res.params["x"] == 0.0
            assert res.psucc == pytest.approx(two_shot_entangled_psucc(pair, "odd", 0.0), abs=1e-12)
            closed = 0.5 * (1.0 + math.sin(pair.eta0) ** 2 - math.sin(pair.eta1) ** 2)
            assert res.psucc == pytest.approx(closed, abs=1e-15)

    def test_even_peak_at_excited_probe(self):
        for pair in (ChannelPair(1.2, 0.4), ChannelPair(0.9, 0.5)):
            res = two_shot_entangled_optimal(pair, "even")
            assert res.params["x"] == pytest.approx(1.0, abs=1e-6)

    def test_closed_forms_match_the_construction_on_edges(self):
        etas = (0.0, 1e-9, 0.6, 1.0, HALF_PI - 1e-9, HALF_PI)
        for pair in (ChannelPair(a, b) for a in etas for b in etas):
            for variant in ("odd", "even"):
                for x in (0.0, 1e-12, 0.25, 0.5, 1.0 - 1e-9, 1.0):
                    assert float(_two_shot_ent_values_batch(pair, variant, np.asarray(x))) == pytest.approx(
                        two_shot_entangled_psucc(pair, variant, x), abs=1e-12
                    )

    def test_even_construction_is_nondecreasing_in_x(self):
        # the closed form grows with x; the Kraus construction must agree
        xs = np.linspace(0.0, 1.0, 101)
        for pair in seeded_pairs(12, 25).channel_pairs():
            vals = np.array([two_shot_entangled_psucc(pair, "even", x) for x in xs])
            assert float(np.min(np.diff(vals))) >= -1e-12

    def test_even_optimum_is_the_product_input(self):
        # at x = 1 the even input is |11>, the product probe pair at x = 1
        for pair in seeded_pairs(40, 26).channel_pairs():
            res = two_shot_entangled_optimal(pair, "even")
            assert res.psucc == pytest.approx(two_shot_product_psucc(pair, 1.0), abs=1e-12)
            assert res.params["x"] == (1.0 if pair.eta0 > pair.eta1 else 0.0)
        assert two_shot_entangled_optimal(ChannelPair(0.7, 0.7), "even").params["x"] == 0.0

    def test_optimum_runs_no_search_and_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the entangled values and optimum are closed forms")

        monkeypatch.setattr(strategies, "maximize_scalar", refuse)
        monkeypatch.setattr(strategies, "maximize_scalar_cells", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for variant in ("odd", "even"):
            assert two_shot_entangled_optimal(ChannelPair(1.2, 0.4), variant).psucc > 0.5
            assert _two_shot_ent_values_batch(ChannelPair(1.2, 0.4), variant, np.linspace(0.0, 1.0, 5)).shape == (5,)

    def test_neither_variant_beats_product_optimum(self):
        for pair in SAMPLE_PAIRS:
            product = two_shot_product_optimal(pair).psucc
            for variant in ("odd", "even"):
                assert two_shot_entangled_optimal(pair, variant).psucc <= product + 1e-9

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            two_shot_entangled_psucc(ChannelPair(1.0, 0.5), "both", 0.5)
        with pytest.raises(ValueError):
            _two_shot_ent_values_batch(ChannelPair(1.0, 0.5), "both", np.asarray(0.5))


class TestTwoShotProduct:
    def test_scan_matches_the_eigensolver_route(self):
        pairs = seeded_pairs(1200, 20)
        xs = np.concatenate([np.linspace(0.0, 1.0, 129), [1e-12, 1.0 - 1e-9]])[None, :]
        gap = np.abs(_two_shot_product_scan(pairs, xs) - _two_shot_product_values_batch(pairs, xs))
        assert gap.max() <= 1e-15
        for pair in SAMPLE_PAIRS + [ChannelPair(0.8, 0.8), ChannelPair(HALF_PI, 0.0)]:
            xs = np.linspace(0.0, 1.0, 33)
            gap = np.abs(_two_shot_product_scan(pair, xs) - _two_shot_product_values_batch(pair, xs))
            assert gap.max() <= 1e-15

    def test_scalar_matches_batch(self):
        pair = ChannelPair(1.35, 0.65)
        xs = np.linspace(0.0, 1.0, 11)
        batch = _two_shot_product_values_batch(pair, xs)
        for x, v in zip(xs, batch):
            assert v == pytest.approx(two_shot_product_psucc(pair, float(x)), abs=1e-12)

    def test_beats_single_use(self):
        for pair in SAMPLE_PAIRS:
            assert (
                two_shot_product_optimal(pair).psucc
                >= one_shot_optimal(pair).psucc - 1e-12
            )

    def test_weak_overlap_prefers_partly_excited_probe(self):
        pair = ChannelPair(1.45, 1.35)
        assert pair.gamma < 0.5
        res = two_shot_product_optimal(pair)
        assert res.params["x"] < 1.0 - 1e-6
        assert res.measurement is not None and not res.measurement["local"]

    def test_excited_probe_measurement_is_local(self):
        pair = ChannelPair(0.9, 0.3)
        res = two_shot_product_optimal(pair)
        assert res.params["x"] == pytest.approx(1.0, abs=1e-9)
        assert res.measurement["local"]


class TestAdaptiveForward:
    @staticmethod
    def eigenbasis_posterior_value(pair: ChannelPair, x: float) -> float:
        # the first copy measured in the eigenbasis of rho0 - rho1, each
        # outcome's likelihoods weighting the second copy's Helstrom problem
        rho0, rho1 = pair.output_pair(x)
        dec = hermitian_eig(rho0 - rho1)
        v0, v1 = dec.vector(0), dec.vector(1)
        p0, q0 = np.vdot(v0, rho0 @ v0).real, np.vdot(v0, rho1 @ v0).real
        q1, p1 = np.vdot(v1, rho0 @ v1).real, np.vdot(v1, rho1 @ v1).real
        assert p0 + q1 == pytest.approx(1.0, abs=1e-12)
        assert q0 + p1 == pytest.approx(1.0, abs=1e-12)
        return 0.5 + 0.25 * (trace_norm(p0 * rho0 - q0 * rho1) + trace_norm(q1 * rho0 - p1 * rho1))

    def test_matches_the_eigenbasis_posterior_route(self):
        rng = np.random.default_rng(19)
        cases = [
            (ChannelPair(*np.sort(rng.uniform(0.0, HALF_PI, 2))[::-1]), float(rng.uniform()))
            for _ in range(25)
        ]
        cases += [(ChannelPair(0.8, 0.8), 0.6), (ChannelPair(1.2, 0.4), 0.0), (ChannelPair(1.2, 0.4), 1.0)]
        for pair, x in cases:
            assert adaptive_forward_psucc(pair, x) == pytest.approx(
                self.eigenbasis_posterior_value(pair, x), abs=1e-12
            )

    def test_scalar_matches_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pair = ChannelPair(*np.sort(rng.uniform(0.0, HALF_PI, 2))[::-1])
            x = float(rng.uniform())
            assert adaptive_forward_psucc(pair, x) == pytest.approx(
                float(_adaptive_forward_values_batch(pair, np.asarray(x))), abs=1e-12
            )

    def test_never_below_single_measurement(self):
        for pair in SAMPLE_PAIRS:
            for x in (0.2, 0.5, 0.9, 1.0):
                assert adaptive_forward_psucc(pair, x) >= one_shot_psucc(pair, x) - 1e-12

    def test_degenerate_pair_flat(self):
        pair = ChannelPair(0.8, 0.8)
        assert adaptive_forward_psucc(pair, 0.6) == pytest.approx(0.5, abs=1e-12)


class TestAdaptiveFeedback:
    def test_frozen_values(self):
        assert adaptive_feedback_psucc(ChannelPair(math.pi / 4, 0.0)) == pytest.approx(
            0.9330127018922193, abs=1e-12
        )
        assert adaptive_feedback_psucc(ChannelPair(HALF_PI, 0.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_closed_form_on_grid(self):
        for eta0 in np.linspace(0.0, HALF_PI, 8):
            for eta1 in np.linspace(0.0, eta0, 5):
                pair = ChannelPair(float(eta0), float(eta1))
                assert adaptive_feedback_psucc(pair) == pytest.approx(
                    adaptive_feedback_closed_form(pair), abs=1e-9
                )

    def test_diagonal_is_blind_guess(self):
        assert adaptive_feedback_psucc(ChannelPair(0.7, 0.7)) == pytest.approx(0.5, abs=1e-12)

    def test_beats_single_copy_feedback(self):
        for pair in SAMPLE_PAIRS:
            assert adaptive_feedback_psucc(pair) >= feedback_optimal(pair).psucc - 1e-12


class TestBackwardAdaptive:
    def test_weights_from_effect(self):
        # the identity first effect learns nothing: the second copy alone decides
        pair = ChannelPair(1.0, 0.4)
        rho0, rho1 = pair.output_pair(0.7)
        assert _two_stage_value(rho0, rho1, np.eye(2, dtype=complex)) == pytest.approx(
            one_shot_psucc(pair, 0.7), abs=1e-12
        )

    def test_dominates_forward_pointwise(self):
        pair = ChannelPair(1.45, 1.15)
        for x in (0.3, 0.6, 0.9):
            assert backward_adaptive_psucc(pair, x) >= adaptive_forward_psucc(pair, x) - 1e-9

    def test_returns_valid_measurement(self):
        povm, value = backward_adaptive_measurement(ChannelPair(1.2, 0.5), 0.6)
        assert povm.n_outcomes == 2
        assert 0.5 <= value <= 1.0

    def test_strict_improvement_for_weak_overlap(self):
        # a freely chosen first effect genuinely beats the projective first
        # measurement when both channels damp strongly
        pair = ChannelPair(1.45, 1.15)
        x = 0.6
        gain = backward_adaptive_psucc(pair, x) - adaptive_forward_psucc(pair, x)
        assert gain > 1e-5

    def test_optimum_difference_is_small(self):
        pair = ChannelPair(1.45, 1.15)
        diff = fwd_bwd_difference(pair)
        assert diff <= 1e-9
        assert abs(diff) <= 5e-3

    # (pair, x) cases for the exact first-step search; the first two are where
    # the earlier 4-D POVM search stopped short of the optimum, the last two
    # near-diagonal ones where a 4097-point scan over the weighted-Helstrom
    # angle t did
    EXACT_CASES = [
        (ChannelPair(1.3366, 0.2654), 0.9644),
        (ChannelPair(1.0495, 0.6521), 0.8847),
        (ChannelPair(1.45, 1.15), 0.6),
        (ChannelPair(0.9, 0.3), 0.35),
        (ChannelPair(1.2, 0.4), 0.0),
        (ChannelPair(HALF_PI, math.pi / 3), 1.0),
        (ChannelPair(0.7, 0.699), 0.6),
        (ChannelPair(1.22, 1.218), 0.45),
    ]

    def test_beats_the_earlier_povm_search(self):
        # values the 17^4-point grid plus coordinate ascent over general
        # effects returned at these points before the weighted-Helstrom search
        # replaced it
        for (pair, x), old_value, gain in zip(
            self.EXACT_CASES[:2], (0.9444891551, 0.7075187072), (2.3e-4, 1.0e-4)
        ):
            assert backward_adaptive_psucc(pair, x) >= old_value + gain

    def test_reaches_the_optimum_the_t_scan_missed(self):
        # a 2,000,001-point scan of the projector's Bloch angle, each point
        # scored by _two_stage_value; the 4097-point t scan stopped about 7e-7
        # short of both, on the lower of two close maxima
        for (pair, x), best in zip(
            self.EXACT_CASES[6:], (0.5004321184148952, 0.5007790148060737)
        ):
            assert abs(backward_adaptive_psucc(pair, x) - best) <= 1e-12

    def test_no_random_effect_beats_the_search(self):
        rng = np.random.default_rng(31)
        for pair, x in self.EXACT_CASES:
            rho0, rho1 = pair.output_pair(x)
            found = backward_adaptive_psucc(pair, x)
            best = 0.0
            for k in range(5000):
                q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                lam = rng.uniform(0.0, 1.0, 2) if k % 2 else np.array([1.0, 0.0])
                effect = (q * lam) @ q.conj().T
                effect = 0.5 * (effect + effect.conj().T)
                best = max(best, _two_stage_value(rho0, rho1, effect))
            assert best <= found + 1e-12

    def test_dominates_forward_on_a_grid(self):
        angles = np.linspace(0.0, HALF_PI, 5)
        for i, e0 in enumerate(angles):
            for e1 in angles[: i + 1]:
                pair = ChannelPair(float(e0), float(e1))
                for x in np.linspace(0.0, 1.0, 6):
                    forward = adaptive_forward_psucc(pair, float(x))
                    assert backward_adaptive_psucc(pair, float(x)) >= forward - 1e-12

    def test_povm_reproduces_the_searched_value(self):
        for pair, x in self.EXACT_CASES:
            povm, value = backward_adaptive_measurement(pair, x)
            rho0, rho1 = pair.output_pair(x)
            rescored = _two_stage_value(rho0, rho1, povm.effects[0])
            assert abs(rescored - value) <= 1e-12
            (_,), (searched,) = _backward_first_step(pair, np.array([x]))
            assert abs(searched - value) <= 1e-12

    def test_closed_form_weights_match_the_helstrom_projector(self):
        for pair, x in self.EXACT_CASES[:4]:
            rho0, rho1 = pair.output_pair(x)
            ts = np.linspace(0.0, HALF_PI, 33)
            entries = np.array(_output_entries(pair.eta0, x) + _output_entries(pair.eta1, x))
            batch = _backward_values_batch(entries[:, None], ts)
            for t, value in zip(ts, batch):
                c, s = math.cos(t), math.sin(t)
                plus = helstrom(rho0, rho1, PriorPair(c / (c + s), s / (c + s))).projector_plus
                assert value == pytest.approx(_two_stage_value(rho0, rho1, plus), abs=1e-12)

    def test_optimal_probe_weight_dominates_its_grid_and_forward(self):
        pair = ChannelPair(1.45, 1.15)
        x_star, value = backward_adaptive_optimal(pair)
        assert value == backward_adaptive_psucc(pair, x_star)
        assert value >= adaptive_forward_optimal(pair).psucc - 1e-12
        for x in np.linspace(0.0, 1.0, 9):
            assert value >= backward_adaptive_psucc(pair, float(x)) - 1e-12

    def test_first_step_never_below_forward(self):
        # the 9x9 grid holds the diagonal (n0 = n1, so the forward effect
        # takes atan2(0, 0)), eta = 0 and pi/2, and eta = pi/4 with x = 1,
        # where rho is I/2 up to rounding
        axis = np.linspace(0.0, HALF_PI, 9)
        e0, e1 = np.meshgrid(axis, axis, indexing="ij")
        pairs = PairArrays.columns(np.maximum(e0, e1).ravel(), np.minimum(e0, e1).ravel())
        xs = np.array([[0.0, 0.25, 0.5, 0.75, 1.0]])
        theta, value = _backward_first_step(pairs, xs)
        assert np.all(np.isfinite(theta))
        assert np.all(value >= _adaptive_forward_values_batch(pairs, xs))

    def test_arc_search_reaches_the_t_scan(self):
        # the weighted-Helstrom family P+(cos t rho0 - sin t rho1) holds every
        # candidate extreme effect; scanned at 4097 angles t, it bounds the
        # arc search from below on random cells, half of them near the diagonal
        rng = np.random.default_rng(1414)
        eta0 = rng.uniform(0.0, HALF_PI, 2000)
        gap = np.where(np.arange(2000) % 2, 10.0 ** rng.uniform(-4.0, -1.0, 2000), eta0)
        eta1 = np.clip(eta0 - rng.uniform(0.0, 1.0, 2000) * gap, 0.0, None)
        xs = rng.uniform(0.0, 1.0, 2000)
        ts = np.linspace(0.0, HALF_PI, 4097)
        for block in np.array_split(np.arange(2000), 20):
            pairs = PairArrays(eta0[block], eta1[block])
            _, value = _backward_first_step(pairs, xs[block])
            entries = np.array(
                _output_entries(eta0[block], xs[block]) + _output_entries(eta1[block], xs[block])
            )
            scan = _backward_values_batch(entries[:, :, None], ts).max(axis=1)
            assert np.all(value >= scan - 1e-12)

    def test_first_step_on_a_pair_block_equals_per_pair_calls(self):
        pairs = [pair for pair, _ in self.EXACT_CASES] + [ChannelPair(0.7, 0.7)]
        xs = np.array([0.0, 0.35, 0.9644, 1.0])
        block = PairArrays.columns([p.eta0 for p in pairs], [p.eta1 for p in pairs])
        theta_block, value_block = _backward_first_step(block, xs[None, :])
        assert theta_block.shape == value_block.shape == (len(pairs), len(xs))
        for k, pair in enumerate(pairs):
            theta_row, value_row = _backward_first_step(pair, xs)
            assert np.array_equal(theta_block[k], theta_row)
            assert np.array_equal(value_block[k], value_row)


    def test_one_cell_first_step_equals_the_block_search(self):
        # a point query's one cell takes the scalar loop of
        # maximize_scalar_cells, a block its masked loop; both must give the same bits
        pairs = seeded_pairs(200, 22)
        xs = np.random.default_rng(23).uniform(0.0, 1.0, 200)
        xs[::9] = 1.0
        theta_block, value_block = _backward_first_step(pairs, xs[:, None])
        for k, pair in enumerate(pairs.channel_pairs()):
            theta, value = _backward_first_step(pair, xs[k : k + 1])
            assert (theta[0], value[0]) == (theta_block[k, 0], value_block[k, 0])


class TestSequential:
    def test_composition_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pair = ChannelPair(*np.sort(rng.uniform(0.0, HALF_PI, 2))[::-1])
            x = float(rng.uniform())
            eff = sequential_effective_pair(pair)
            assert sequential_two_shot_psucc(pair, x) == pytest.approx(
                one_shot_psucc(eff, x), abs=1e-12
            )

    def test_closed_optimum_dominates_composition_grid(self):
        rng = np.random.default_rng(12)
        xs = np.linspace(0.0, 1.0, 101)
        for _ in range(20):
            pair = ChannelPair(*np.sort(rng.uniform(0.0, HALF_PI, 2))[::-1])
            res = sequential_two_shot_optimal(pair)
            for x in xs:
                assert res.psucc >= sequential_two_shot_psucc(pair, float(x)) - 1e-12
            assert res.psucc == pytest.approx(
                sequential_two_shot_psucc(pair, res.params["x"]), abs=1e-12
            )

    def test_matches_adaptive_in_weak_second_channel_region(self):
        for pair in (ChannelPair(0.9, 0.3), ChannelPair(1.1, 0.2), ChannelPair(0.7, 0.5)):
            assert pair.eta1 < HALF_PI - pair.eta0
            assert sequential_two_shot_optimal(pair).psucc == pytest.approx(
                adaptive_forward_optimal(pair).psucc, abs=1e-9
            )

    def test_falls_behind_adaptive_otherwise(self):
        for pair in (ChannelPair(1.1, 0.5), ChannelPair(1.4, 0.9), ChannelPair(1.3, 0.4)):
            assert pair.eta1 > HALF_PI - pair.eta0
            gap = adaptive_forward_optimal(pair).psucc - sequential_two_shot_optimal(pair).psucc
            assert gap > 1e-6


class TestStrategyOrdering:
    def test_chain_at_sample_pairs(self):
        # more room to act never hurts: single measurement <= adaptive local
        # pair <= collective pair measurement
        for pair in SAMPLE_PAIRS:
            one = one_shot_optimal(pair).psucc
            adaptive = adaptive_forward_optimal(pair).psucc
            collective = two_shot_product_optimal(pair).psucc
            assert one <= adaptive + 1e-9
            assert adaptive <= collective + 1e-9

    def test_feedback_dominates_plain_one_shot(self):
        for pair in SAMPLE_PAIRS:
            assert feedback_optimal(pair).psucc >= one_shot_optimal(pair).psucc - 1e-9


class TestCellBatchedOptima:
    """The cell-batched route against the pointwise one, on a 9x9 grid of pairs.

    A single-pair optimum is a one-row batch, which takes the scalar loop of
    ``maximize_scalar_cells``, so these compare that loop with the masked one.

    The grid holds the diagonal, whose flat objectives take the x = 1 rule,
    and many cells whose grid argmax sits on the edge x = 1.
    """

    @staticmethod
    def ordered_grid() -> tuple[np.ndarray, np.ndarray]:
        axis = np.linspace(0.0, HALF_PI, 9)
        e0, e1 = np.meshgrid(axis, axis, indexing="ij")
        return np.maximum(e0, e1).ravel(), np.minimum(e0, e1).ravel()

    @pytest.mark.parametrize(
        "values, grid_points",
        [(_two_shot_product_values_batch, 513), (_adaptive_forward_values_batch, 257)],
    )
    def test_optimizer_equals_maximize_scalar_cell_by_cell(self, values, grid_points):
        eta0, eta1 = self.ordered_grid()
        pairs = PairArrays.columns(eta0, eta1)
        x_cells, y_cells = maximize_scalar_cells(
            lambda idx, xs: values(pairs.take(idx), xs), len(eta0), 0.0, 1.0, grid_points=grid_points
        )
        for k, (a, b) in enumerate(zip(eta0, eta1)):
            pair = ChannelPair(float(a), float(b))
            expected = maximize_scalar(lambda xs: values(pair, xs), 0.0, 1.0, grid_points=grid_points)
            assert (x_cells[k], y_cells[k]) == expected
        # refinements that started from a one-step bracket at the edge x = 1
        assert np.count_nonzero(x_cells > 1.0 - 1.0 / (grid_points - 1)) > len(eta0) // 2

    def test_product_optimum_equals_pointwise(self):
        eta0, eta1 = self.ordered_grid()
        x_star, psucc = _two_shot_product_optimal_batch(PairArrays.columns(eta0, eta1))
        for k, (a, b) in enumerate(zip(eta0, eta1)):
            res = two_shot_product_optimal(ChannelPair(float(a), float(b)))
            assert (x_star[k], psucc[k]) == (res.params["x"], res.psucc)
        assert np.all(x_star[eta0 == eta1] == 1.0)

    def test_scan_leaves_both_optimizers_unchanged(self):
        eta0, eta1 = self.ordered_grid()
        pairs = PairArrays.columns(eta0, eta1)
        expected = maximize_scalar_cells(
            lambda idx, xs: _two_shot_product_values_batch(pairs.take(idx), xs),
            len(eta0),
            0.0,
            1.0,
            grid_points=513,
        )
        x_cells, y_cells = maximize_scalar_cells(
            lambda idx, xs: _two_shot_product_values_batch(pairs.take(idx), xs),
            len(eta0),
            0.0,
            1.0,
            grid_points=513,
            scan=lambda idx, xs: _two_shot_product_scan(pairs.take(idx), xs),
        )
        assert np.array_equal(x_cells, expected[0]) and np.array_equal(y_cells, expected[1])
        for k, (a, b) in enumerate(zip(eta0, eta1)):
            pair = ChannelPair(float(a), float(b))
            scanned = maximize_scalar(
                lambda xs: _two_shot_product_values_batch(pair, xs),
                0.0,
                1.0,
                grid_points=513,
                scan=lambda xs: _two_shot_product_scan(pair, xs),
            )
            assert scanned == (expected[0][k], expected[1][k])

    def test_scan_leaves_the_product_optimum_unchanged_on_seeded_pairs(self):
        # on this set, rescoring only the scan's own argmax moves one
        # near-diagonal x* by 7.2e-5: the near ties need rescoring too
        pairs = seeded_pairs(2000, 5)

        def optimum(**scan):
            return maximize_scalar_cells(
                lambda idx, xs: _two_shot_product_values_batch(pairs.take(idx), xs),
                2000,
                0.0,
                1.0,
                grid_points=513,
                **scan,
            )

        x_plain, y_plain = optimum()
        x_scan, y_scan = optimum(scan=lambda idx, xs: _two_shot_product_scan(pairs.take(idx), xs))
        assert np.array_equal(x_scan, x_plain) and np.array_equal(y_scan, y_plain)
        x_star, psucc = _two_shot_product_optimal_batch(pairs)
        assert np.array_equal(psucc, y_plain)
        assert np.array_equal(x_star, np.where(y_plain - 0.5 <= 1e-9, 1.0, x_plain))
        for k in range(0, 2000, 50):
            res = two_shot_product_optimal(ChannelPair(float(pairs.eta0[k, 0]), float(pairs.eta1[k, 0])))
            assert (res.params["x"], res.psucc) == (x_star[k], psucc[k])

    def test_adaptive_optimum_equals_pointwise(self):
        eta0, eta1 = self.ordered_grid()
        x_star, psucc = _adaptive_forward_optimal_batch(PairArrays.columns(eta0, eta1))
        for k, (a, b) in enumerate(zip(eta0, eta1)):
            res = adaptive_forward_optimal(ChannelPair(float(a), float(b)))
            assert (x_star[k], psucc[k]) == (res.params["x"], res.psucc)

    @pytest.fixture(scope="class")
    def backward_cells(self):
        # the lower triangle of a 5x5 grid (diagonal, eta = 0 and pi/2
        # included), with the backward optimum and the forward-backward
        # difference of each pair found one pair at a time: a maximize_scalar
        # search over x, each value rescored by a new first step at its x
        axis = np.linspace(0.0, HALF_PI, 5)
        eta0 = np.array([a for i, a in enumerate(axis) for _ in axis[: i + 1]])
        eta1 = np.array([b for i in range(len(axis)) for b in axis[: i + 1]])
        optima, differences = [], []
        for a, b in zip(eta0, eta1):
            pair = ChannelPair(float(a), float(b))
            x_star, _ = maximize_scalar(
                lambda xs: _backward_first_step(pair, xs)[1], 0.0, 1.0, grid_points=65, tol=1e-6
            )
            value = backward_adaptive_psucc(pair, x_star)
            forward = adaptive_forward_optimal(pair)
            at_forward = backward_adaptive_psucc(pair, forward.params["x"])
            optima.append((x_star, value))
            differences.append(forward.psucc - max(value, at_forward))
        return PairArrays.columns(eta0, eta1), optima, differences

    def test_backward_optimum_equals_pointwise(self, backward_cells):
        pairs, optima, _ = backward_cells
        x_star, psucc = _backward_adaptive_optimal_batch(pairs)
        assert list(zip(x_star, psucc)) == optima
        assert backward_adaptive_optimal(pairs.channel_pairs()[-2]) == optima[-2]

    def test_fwd_bwd_difference_equals_pointwise(self, backward_cells):
        pairs, _, differences = backward_cells
        assert list(_fwd_bwd_difference_batch(pairs)) == differences
        assert fwd_bwd_difference(pairs.channel_pairs()[-2]) == differences[-2]

    def test_side_optimum_matches_pointwise(self):
        eta0, eta1 = self.ordered_grid()
        y_star, psucc = _side_ent_optimal_batch(PairArrays.columns(eta0, eta1))
        for k, (a, b) in enumerate(zip(eta0, eta1)):
            res = side_ent_optimal(ChannelPair(float(a), float(b)))
            assert y_star[k] == res.params["y"]
            assert psucc[k] == pytest.approx(res.psucc, abs=1e-15)

    def test_batch_range_check_matches_strategy_result(self):
        ok = np.array([0.5 - 5e-10, 0.75, 1.0 + 5e-10])
        assert _checked_psucc(ok) is ok
        for bad in (0.5 - 2e-9, 1.0 + 2e-9):
            with pytest.raises(ValueError, match="outside"):
                StrategyResult(psucc=bad, params={})
            with pytest.raises(ValueError, match="outside"):
                _checked_psucc(np.append(ok, bad))
