import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_pure
from dampdisc import discrimination as disc
from dampdisc import linalg
from dampdisc.protocols import build_protocol
from dampdisc.strategies import ChannelPair


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([77, seed])


class TestPriorPair:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            disc.PriorPair(-0.1, 1.1)

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            disc.PriorPair(0.3, 0.3)

    def test_equal_priors_constant(self):
        assert disc.EQUAL_PRIORS.p0 == disc.EQUAL_PRIORS.p1 == 0.5


class TestHelstrom:
    def test_identical_states_give_coin_flip(self):
        rho = np.diag([0.5, 0.5])
        assert disc.helstrom(rho, rho).psucc == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pure_states_are_perfectly_distinguishable(self):
        r0 = np.diag([1.0, 0.0])
        r1 = np.diag([0.0, 1.0])
        assert disc.helstrom(r0, r1).psucc == pytest.approx(1.0, abs=1e-12)

    def test_frozen_partially_decayed_example(self):
        # trace norm of the difference is 1/2, so psucc = (1 + 1/4) / 2
        r0 = np.diag([1.0, 0.0])
        r1 = np.diag([0.75, 0.25])
        assert disc.helstrom(r0, r1).psucc == pytest.approx(0.625, abs=1e-12)

    def test_certain_prior_wins_outright(self):
        r0 = np.diag([0.5, 0.5])
        r1 = np.diag([0.9, 0.1])
        res = disc.helstrom(r0, r1, disc.PriorPair(1.0, 0.0))
        assert res.psucc == pytest.approx(1.0, abs=1e-10)

    def test_zero_difference_assigns_everything_to_plus(self):
        rho = np.diag([0.5, 0.5])
        res = disc.helstrom(rho, rho)
        assert np.allclose(res.projector_plus, np.eye(2), atol=1e-12)
        assert np.allclose(res.projector_minus, np.zeros((2, 2)), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            disc.helstrom(np.diag([1.0, 0.0]), np.diag([1.0, 0.0, 0.0, 0.0]))

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]))
    @settings(max_examples=100, deadline=None)
    def test_projector_invariants_and_formula_agreement(self, seed, dim):
        rng = seeded_rng(seed)
        r0, r1 = random_density(rng, dim), random_density(rng, dim)
        res = disc.helstrom(r0, r1)
        eye = np.eye(dim)
        assert np.max(np.abs(res.projector_plus + res.projector_minus - eye)) <= 1e-10
        for p in (res.projector_plus, res.projector_minus):
            assert np.max(np.abs(p @ p - p)) <= 1e-10
            assert np.max(np.abs(p - p.conj().T)) <= 1e-10
        # trace-formula and trace-norm routes must agree
        assert res.psucc == pytest.approx(disc.helstrom_psucc(r0, r1), abs=1e-10)
        assert 0.5 - 1e-12 <= res.psucc <= 1.0 + 1e-12

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_under_hypothesis_swap(self, seed, dim):
        rng = seeded_rng(seed)
        r0, r1 = random_density(rng, dim), random_density(rng, dim)
        assert disc.helstrom(r0, r1).psucc == pytest.approx(
            disc.helstrom(r1, r0).psucc, abs=1e-10
        )

    @given(seed=st.integers(0, 2**32 - 1), p0=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_general_priors_consistency(self, seed, p0):
        rng = seeded_rng(seed)
        r0, r1 = random_density(rng, 2), random_density(rng, 2)
        priors = disc.PriorPair(p0, 1.0 - p0)
        res = disc.helstrom(r0, r1, priors)
        assert res.psucc == pytest.approx(disc.helstrom_psucc(r0, r1, priors), abs=1e-10)
        assert res.psucc >= max(p0, 1.0 - p0) - 1e-10


class TestPureStatePsucc:
    def test_identical_states(self):
        v = np.array([1.0, 0.0])
        assert disc.pure_state_psucc(v, v) == 0.5

    def test_orthogonal_states(self):
        assert disc.pure_state_psucc(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_frozen_cosine_overlap_example(self):
        a = np.array([1.0, 0.0])
        b = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
        assert disc.pure_state_psucc(a, b) == pytest.approx(0.8535533905932737, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_projector_helstrom(self, seed, dim):
        rng = seeded_rng(seed)
        a, b = random_pure(rng, dim), random_pure(rng, dim)
        via_hel = disc.helstrom(linalg.projector(a), linalg.projector(b)).psucc
        assert disc.pure_state_psucc(a, b) == pytest.approx(via_hel, abs=1e-10)


class TestMaximizeScalar:
    def test_parabola(self):
        x, y = disc.maximize_scalar(lambda t: -((t - 0.3) ** 2), 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_constant_returns_lower_bound(self):
        x, y = disc.maximize_scalar(lambda t: np.full_like(t, 2.5), 0.0, 1.0)
        assert x == 0.0
        assert y == 2.5

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="lo < hi"):
            disc.maximize_scalar(lambda t: t, 1.0, 1.0)

    def test_frozen_damping_overlap_objective(self):
        # closed-form one-shot success with gamma = 1/2: argmax 2/3
        gamma = 0.5

        def f(x: np.ndarray) -> np.ndarray:
            return 0.5 * (1.0 + gamma * np.sqrt(x * (1.0 - x * (1.0 - gamma**2))))

        x, y = disc.maximize_scalar(f, 0.0, 1.0)
        assert x == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert y == pytest.approx(0.6443375672974064, abs=1e-12)

    def test_boundary_maximum(self):
        x, y = disc.maximize_scalar(lambda t: t, 0.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-9)
        assert y == pytest.approx(1.0, abs=1e-9)


class TestMaximizeScalarCells:
    def test_each_cell_stops_at_its_own_iteration_count(self):
        # cell 0 peaks inside the grid (a two-step bracket), cell 1 on its
        # edge x = 1 (a one-step bracket), so cell 0 needs one more step
        objectives = (lambda t: -((t - 0.3) ** 2), lambda t: t)
        points = [0, 0]

        def f(idx, xs):
            out = np.empty(np.broadcast_shapes((len(idx), 1), np.shape(xs)))
            for row, k in enumerate(idx):
                out[row] = objectives[k](np.broadcast_to(xs, out.shape)[row])
                points[k] += out.shape[1]
            return out

        x, y = disc.maximize_scalar_cells(f, 2, 0.0, 1.0)
        for k, objective in enumerate(objectives):
            scalar_points = [0]

            def counted(t, objective=objective, scalar_points=scalar_points):
                scalar_points[0] += np.size(t)
                return objective(t)

            assert (x[k], y[k]) == disc.maximize_scalar(counted, 0.0, 1.0)
            assert points[k] == scalar_points[0]
        assert points[0] == points[1] + 1

    @pytest.mark.parametrize("scanned", [False, True])
    def test_one_cell_runs_the_scalar_loop(self, scanned):
        # the block loop scores a cell's first two golden points in one call,
        # the scalar loop in two, so equal call counts show the scalar loop ran
        calls = {"cells": 0, "scalar": 0}

        def quadratic(t):
            return -((t - 0.3) ** 2)

        def cell_scan(idx, xs):
            return quadratic(np.broadcast_to(xs, (1, np.shape(xs)[-1])))

        def cell(idx, xs):
            calls["cells"] += 1
            return cell_scan(idx, xs)

        def scalar(t):
            calls["scalar"] += 1
            return quadratic(t)

        x, y = disc.maximize_scalar_cells(cell, 1, 0.0, 1.0, scan=cell_scan if scanned else None)
        expected = disc.maximize_scalar(scalar, 0.0, 1.0, scan=quadratic if scanned else None)
        assert x.shape == y.shape == (1,)
        assert (x[0], y[0]) == expected
        assert calls["cells"] == calls["scalar"]

    def test_chunked_grid_scan_matches_one_cell_at_a_time(self):
        shifts = np.linspace(0.05, 0.95, 2 * disc.CELL_CHUNK + 3)

        def f(idx, xs):
            return np.cos(7.0 * (xs - shifts[idx, None])) + 0.1 * xs

        x, y = disc.maximize_scalar_cells(f, len(shifts), 0.0, 1.0)
        for k in range(len(shifts)):
            expected = disc.maximize_scalar(lambda t: f(np.array([k]), t[None, :])[0], 0.0, 1.0)
            assert (x[k], y[k]) == expected

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="lo < hi"):
            disc.maximize_scalar_cells(lambda idx, xs: xs, 1, 1.0, 1.0)


class TestScanObjective:
    """A cheap ``scan`` form of the objective scans the grid; ``f`` decides."""

    @staticmethod
    def plateau(t):
        # maximal on all of [0.5, 1]: the leftmost grid point 0.5 is the argmax
        return np.minimum(t, 0.5)

    @staticmethod
    def jitter(seed):
        # moves values by up to SCAN_SLACK / 4, so a scan breaks the plateau's ties at random
        rng = np.random.default_rng(seed)
        return lambda values: values + rng.uniform(-0.25, 0.25, np.shape(values)) * disc.SCAN_SLACK

    def test_scalar_optimizer_returns_what_f_alone_returns(self):
        expected = disc.maximize_scalar(self.plateau, 0.0, 1.0)
        assert expected == (0.5, 0.5)
        for seed in range(5):
            jitter = self.jitter(seed)
            scanned = disc.maximize_scalar(self.plateau, 0.0, 1.0, scan=lambda t: jitter(self.plateau(t)))
            assert scanned == expected

    def test_cell_optimizer_returns_what_f_alone_returns(self):
        shifts = np.linspace(0.0, 0.4, 2 * disc.CELL_CHUNK + 3)

        def f(idx, xs):
            return self.plateau(xs - shifts[idx, None])

        jitter = self.jitter(0)
        expected = disc.maximize_scalar_cells(f, len(shifts), 0.0, 1.0)
        x, y = disc.maximize_scalar_cells(f, len(shifts), 0.0, 1.0, scan=lambda idx, xs: jitter(f(idx, xs)))
        assert np.array_equal(x, expected[0]) and np.array_equal(y, expected[1])

    def test_scan_runs_on_the_grid_only(self):
        calls = {"scan": 0, "f": 0}

        def counted(name, objective):
            def wrapped(*args):
                calls[name] += 1
                return objective(*args)

            return wrapped

        def cells(idx, xs):
            # increasing, so each cell has one near point
            return np.broadcast_to(xs, (len(idx), np.shape(xs)[-1])).copy()

        disc.maximize_scalar(counted("f", self.plateau), 0.0, 1.0, scan=counted("scan", self.plateau))
        assert calls["scan"] == 1
        n_cells = 2 * disc.CELL_CHUNK + 1  # three chunks
        calls.update(scan=0, f=0)
        disc.maximize_scalar_cells(counted("f", cells), n_cells, 0.0, 1.0, scan=counted("scan", cells))
        assert calls["scan"] == 3
        with_scan = calls["f"]
        calls.update(f=0)
        disc.maximize_scalar_cells(counted("f", cells), n_cells, 0.0, 1.0)
        # the three chunked grid calls of f become one call on the near points
        assert with_scan == calls["f"] - 2


class TestPovm:
    def test_rejects_non_hermitian_effect(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            disc.Povm(effects=(m, np.eye(2) - m))

    def test_rejects_effect_outside_unit_interval(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            disc.Povm(effects=(2.0 * np.eye(2), -np.eye(2)))

    def test_rejects_non_identity_sum(self):
        with pytest.raises(ValueError, match="identity"):
            disc.Povm(effects=(0.5 * np.eye(2), 0.4 * np.eye(2)))


def perfect_protocol() -> disc.Protocol:
    return disc.Protocol(
        name="perfect",
        stage_tables=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
        decisions=np.array([0, 1]),
        analytic_psucc=1.0,
    )


def biased_protocol() -> disc.Protocol:
    # single stage, outcome distribution depends on hypothesis
    return disc.Protocol(
        name="biased",
        stage_tables=(np.array([[0.8, 0.2], [0.3, 0.7]]),),
        decisions=np.array([0, 1]),
        analytic_psucc=0.75,
    )


def two_stage_protocol() -> disc.Protocol:
    first = np.array([[0.6, 0.4], [0.4, 0.6]])
    second = np.array(
        [
            [[0.9, 0.1], [0.5, 0.5]],  # h=0, by first outcome
            [[0.2, 0.8], [0.5, 0.5]],  # h=1
        ]
    )
    decisions = np.array([[0, 1], [0, 1]])
    # success: h=0 paths ending in guess 0, h=1 paths ending in guess 1
    p0 = 0.6 * 0.9 + 0.4 * 0.5
    p1 = 0.4 * 0.8 + 0.6 * 0.5
    return disc.Protocol(
        name="toy-two-stage",
        stage_tables=(first, second),
        decisions=decisions,
        analytic_psucc=0.5 * (p0 + p1),
    )


class TestProtocolEngine:
    def test_validation_rejects_bad_row_sums(self):
        with pytest.raises(ValueError, match="sum to 1"):
            disc.Protocol("bad", (np.array([[0.5, 0.4], [0.5, 0.5]]),), np.array([0, 1]), 0.5)

    def test_validation_rejects_bad_decision_values(self):
        with pytest.raises(ValueError, match="decisions"):
            disc.Protocol("bad", (np.array([[1.0, 0.0], [0.0, 1.0]]),), np.array([0, 2]), 0.5)

    def test_validation_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            disc.Protocol("bad", (np.array([[1.0, 0.0], [0.0, 1.0]]),), np.array([[0, 1]] * 2), 0.5)

    def test_exact_psucc_matches_hand_computation(self):
        assert disc.exact_psucc(biased_protocol()) == pytest.approx(0.75, abs=1e-15)
        proto = two_stage_protocol()
        assert disc.exact_psucc(proto) == pytest.approx(proto.analytic_psucc, abs=1e-15)

    def test_perfect_protocol_estimates_exactly_one(self):
        est = disc.monte_carlo_psucc(perfect_protocol(), trials=1000, seed=1)
        assert est.estimate == 1.0
        assert est.stderr == 0.0

    def test_estimate_within_three_sigma(self):
        proto = two_stage_protocol()
        est = disc.monte_carlo_psucc(proto, trials=100_000, seed=5)
        assert abs(est.estimate - proto.analytic_psucc) <= 3.0 * est.stderr

    def test_same_seed_reproduces_estimate(self):
        proto = biased_protocol()
        a = disc.monte_carlo_psucc(proto, trials=70_000, seed=42)
        b = disc.monte_carlo_psucc(proto, trials=70_000, seed=42)
        assert a.estimate == b.estimate
        assert a.n_correct == b.n_correct

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError, match="trials"):
            disc.monte_carlo_psucc(perfect_protocol(), trials=0, seed=1)

    def test_rejects_trials_beyond_int64(self):
        with pytest.raises(ValueError, match="trials"):
            disc.monte_carlo_psucc(perfect_protocol(), trials=disc.MAX_TRIALS + 1, seed=1)

    @pytest.mark.parametrize("row", [[1.0 + 5e-10, 0.0], [1.0 + 5e-13, -5e-13]])
    def test_samples_rows_that_validation_accepts(self, row):
        # numpy's multinomial rejects both rows as they stand
        proto = disc.Protocol("edge", (np.array([row, [0.0, 1.0]]),), np.array([0, 1]), 1.0)
        est = disc.monte_carlo_psucc(proto, trials=1000, seed=2)
        assert est.n_correct == 1000

    def test_estimator_has_unit_z_distribution(self):
        # a biased or over-dispersed draw shows in the z-scores of many seeds,
        # where a single seed within a few stderr cannot see it
        trials = 2**12
        four_stage = build_protocol("adaptive-fb", ChannelPair(1.2, 0.4))
        assert four_stage.n_stages == 4
        for proto in (two_stage_protocol(), four_stage):
            p = proto.analytic_psucc
            spread = math.sqrt(p * (1.0 - p) / trials)
            z = np.array(
                [(disc.monte_carlo_psucc(proto, trials, seed).estimate - p) / spread for seed in range(400)]
            )
            assert abs(z.mean()) <= 0.15
            assert 0.9 <= z.std() <= 1.1

    def test_largest_trial_count_runs(self):
        proto = two_stage_protocol()
        est = disc.monte_carlo_psucc(proto, trials=2**63 - 1, seed=4)
        p = proto.analytic_psucc
        assert abs(est.estimate - p) <= 6.0 * math.sqrt(p * (1.0 - p) / est.trials)
