"""Protocol builders: exact table contraction vs analytic values, MC agreement."""

import inspect
import math

import numpy as np
import pytest

from dampdisc import protocols
from dampdisc.discrimination import Protocol, exact_psucc, monte_carlo_psucc
from dampdisc.protocols import (
    MC_STRATEGIES,
    adaptive_feedback_protocol,
    adaptive_forward_protocol,
    backward_adaptive_protocol,
    build_protocol,
    feedback_protocol,
)
from dampdisc.strategies import (
    ChannelPair,
    adaptive_forward_optimal,
    one_shot_optimal,
    sequential_two_shot_optimal,
    side_ent_optimal,
    two_shot_entangled_optimal,
    two_shot_product_optimal,
)

PAIRS = [ChannelPair(1.2, 0.4), ChannelPair(math.pi / 2, math.pi / 3), ChannelPair(1.45, 1.15)]


class TestExactAgainstAnalytic:
    def check(self, protocol):
        assert exact_psucc(protocol) == pytest.approx(protocol.analytic_psucc, abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.3, 2.0 / 3.0, 1.0])
    def test_one_shot(self, x):
        for pair in PAIRS:
            self.check(build_protocol("one-shot", pair, {"x": x}))

    @pytest.mark.parametrize("y", [0.0, 0.2, 0.5])
    def test_side_entangled(self, y):
        for pair in PAIRS:
            self.check(build_protocol("side-ent", pair, {"y": y}))

    @pytest.mark.parametrize("x,alpha", [(0.5, 0.6), (1.0, math.pi / 4), (0.8, 0.0)])
    def test_feedback(self, x, alpha):
        for pair in PAIRS:
            self.check(feedback_protocol(pair, x, alpha))

    def test_feedback_with_impossible_branch(self):
        # fully damping channel, excited probe, untilted basis: one branch is
        # unreachable under one hypothesis and identifies the channel
        self.check(feedback_protocol(ChannelPair(math.pi / 2, math.pi / 3), 1.0, 0.0))

    @pytest.mark.parametrize("variant", ["odd", "even"])
    def test_two_shot_entangled(self, variant):
        for pair in PAIRS:
            self.check(build_protocol("two-shot-entangled", pair, {"variant": variant, "x": 0.6}))

    @pytest.mark.parametrize("x", [0.4, 0.95, 1.0])
    def test_two_shot_product(self, x):
        for pair in PAIRS:
            self.check(build_protocol("two-shot-product", pair, {"x": x}))

    @pytest.mark.parametrize("x", [0.1, 0.6, 1.0])
    def test_adaptive_forward(self, x):
        for pair in PAIRS:
            self.check(adaptive_forward_protocol(pair, x))

    def test_adaptive_feedback(self):
        for pair in PAIRS:
            self.check(adaptive_feedback_protocol(pair))

    @pytest.mark.parametrize("x", [0.6, 0.9])
    def test_backward(self, x):
        for pair in PAIRS[:2]:
            self.check(backward_adaptive_protocol(pair, x))

    @pytest.mark.parametrize("x", [0.3, 1.0])
    def test_sequential(self, x):
        for pair in PAIRS:
            self.check(build_protocol("sequential", pair, {"x": x}))


class TestBuildProtocol:
    def test_all_strategies_build_with_defaults(self):
        pair = ChannelPair(1.1, 0.5)
        for name in MC_STRATEGIES:
            proto = build_protocol(name, pair)
            assert exact_psucc(proto) == pytest.approx(proto.analytic_psucc, abs=1e-9)

    def test_explicit_params_respected(self):
        pair = ChannelPair(1.1, 0.5)
        proto = build_protocol("one-shot", pair, {"x": 0.25})
        from dampdisc.strategies import one_shot_psucc

        assert proto.analytic_psucc == pytest.approx(one_shot_psucc(pair, 0.25), abs=1e-12)

    def test_rejects_unsimulable_strategy(self):
        with pytest.raises(ValueError):
            build_protocol("fwd-bwd-diff", ChannelPair(1.0, 0.5))
        with pytest.raises(ValueError):
            build_protocol("polar-curve", ChannelPair(1.0, 0.5))


EDGE_ETAS = (0.0, 1e-9, 0.6, 1.0, math.pi / 2 - 1e-9, math.pi / 2)


class TestEdges:
    @pytest.mark.parametrize("name", MC_STRATEGIES)
    @pytest.mark.parametrize(
        "params", [{}, {"x": 0.0}, {"x": 1.0}, {"x": 0.5, "y": 0.0, "alpha": 0.0, "variant": "even"}]
    )
    def test_every_tree_is_exact_on_edge_and_identical_channels(self, name, params):
        for eta0 in EDGE_ETAS:
            for eta1 in EDGE_ETAS:
                proto = build_protocol(name, ChannelPair(eta0, eta1), params)
                assert exact_psucc(proto) == pytest.approx(proto.analytic_psucc, abs=1e-12)

    def test_feedback_branch_effects_take_no_priors(self):
        # the posterior-weighted stages all go through _posterior_helstrom_rows
        assert list(inspect.signature(protocols._pure_branch_effects).parameters) == ["state0", "state1"]


class TestLazyDefaults:
    OPTIMIZERS = (
        "one_shot_optimal",
        "side_ent_optimal",
        "two_shot_entangled_optimal",
        "two_shot_product_optimal",
        "adaptive_forward_optimal",
        "sequential_two_shot_optimal",
    )

    @pytest.mark.parametrize("name", MC_STRATEGIES)
    def test_given_parameters_run_no_optimizer(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("an optimum was computed for a parameter that was given")

        for optimizer in self.OPTIMIZERS:
            monkeypatch.setattr(protocols, optimizer, refuse)
        params = {"x": 0.6, "y": 0.4, "alpha": 0.5, "variant": "even"}
        proto = build_protocol(name, ChannelPair(1.2, 0.4), params)
        assert exact_psucc(proto) == pytest.approx(proto.analytic_psucc, abs=1e-9)

    def test_feedback_omitted_x_is_the_optimum_at_the_given_alpha(self):
        pair = ChannelPair(1.2853626116987742, 0.18476586493855107)
        proto = build_protocol("feedback", pair, {"alpha": 1.5201928563490097})
        assert proto.analytic_psucc == pytest.approx(0.722642, abs=1e-6)
        assert exact_psucc(proto) == pytest.approx(proto.analytic_psucc, abs=1e-12)

    @pytest.mark.parametrize(
        "name, key, optimal",
        [
            ("one-shot", "x", one_shot_optimal),
            ("side-ent", "y", side_ent_optimal),
            ("two-shot-entangled", "x", lambda pair: two_shot_entangled_optimal(pair, "odd")),
            ("two-shot-product", "x", two_shot_product_optimal),
            ("adaptive", "x", adaptive_forward_optimal),
            ("backward", "x", adaptive_forward_optimal),
            ("sequential", "x", sequential_two_shot_optimal),
        ],
    )
    def test_omitted_parameter_is_the_optimum(self, name, key, optimal):
        pair = ChannelPair(1.2, 0.4)
        default = build_protocol(name, pair, {})
        given = build_protocol(name, pair, {key: optimal(pair).params[key]})
        assert default.analytic_psucc == given.analytic_psucc
        for a, b in zip(default.stage_tables, given.stage_tables):
            assert np.array_equal(a, b)


class TestMonteCarlo:
    def test_estimates_within_three_stderr(self):
        pair = ChannelPair(1.2, 0.4)
        for name in ("one-shot", "feedback", "adaptive", "adaptive-fb"):
            proto = build_protocol(name, pair)
            est = monte_carlo_psucc(proto, trials=100_000, seed=99)
            assert abs(est.estimate - proto.analytic_psucc) <= 3.0 * est.stderr + 1e-12

    def test_seeded_runs_reproduce(self):
        proto = build_protocol("adaptive-fb", ChannelPair(1.3, 0.6))
        a = monte_carlo_psucc(proto, trials=30_000, seed=5)
        b = monte_carlo_psucc(proto, trials=30_000, seed=5)
        assert a.estimate == b.estimate and a.n_correct == b.n_correct

    def test_sampling_respects_decision_table(self):
        # the same draws scored with every guess flipped succeed exactly
        # where the original guesses fail
        proto = build_protocol("adaptive", ChannelPair(1.2, 0.4), {"x": 0.7})
        flipped = Protocol(
            name="flipped",
            stage_tables=proto.stage_tables,
            decisions=1 - proto.decisions,
            analytic_psucc=1.0 - proto.analytic_psucc,
        )
        a = monte_carlo_psucc(proto, trials=50_000, seed=3)
        b = monte_carlo_psucc(flipped, trials=50_000, seed=3)
        assert 0 < a.n_correct < 50_000
        assert a.n_correct + b.n_correct == 50_000
