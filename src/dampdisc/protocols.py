"""Measurement-tree builders for Monte Carlo simulation of each strategy.

Every builder reduces a strategy to a Protocol: conditional outcome tables for
each measurement stage plus a guess for every outcome history.  Every stage
that ends in a Helstrom measurement at the posterior of the history so far
takes its rows from ``_posterior_helstrom_rows``: the one-stage trees at
equal priors, the second copy of ``adaptive`` and ``backward`` and the last
stage of ``adaptive-fb``.  Only the ``feedback`` system stage differs, since
one hypothesis alone may reach a branch.  The analytic success probability
travels with the protocol so simulations can be checked against it;
exact_psucc recomputes it independently from the tables.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import DEFAULT_VARIANT
from .discrimination import PriorPair, Protocol, helstrom, helstrom_psucc
from .linalg import hermitian_eig, projector
from .strategies import (
    ChannelPair,
    _balanced_feedback_branches,
    adaptive_feedback_psucc,
    adaptive_forward_optimal,
    adaptive_forward_psucc,
    backward_adaptive_measurement,
    feedback_conditional_states,
    feedback_params,
    feedback_psucc,
    one_shot_optimal,
    sequential_outputs,
    sequential_two_shot_optimal,
    side_ent_optimal,
    side_ent_outputs,
    two_shot_entangled_optimal,
    two_shot_entangled_outputs,
    two_shot_product_optimal,
    two_shot_product_outputs,
)

UNREACHABLE_ROW = (0.5, 0.5)  # never sampled; keeps rows normalized


def _outcome_row(rho: np.ndarray, effects: tuple) -> list[float]:
    return [float(np.trace(rho @ e).real) for e in effects]


def _posterior_helstrom_rows(rho0: np.ndarray, rho1: np.ndarray, joint0: float, joint1: float) -> tuple:
    """Both hypotheses' rows of the Helstrom measurement at the posterior of a history.

    The priors are proportional to the history's joint probabilities
    (joint0, joint1); a history of total probability at most 1e-15 is never
    reached, and gets the unreachable rows.
    """
    total = joint0 + joint1
    if total <= 1e-15:
        return UNREACHABLE_ROW, UNREACHABLE_ROW
    hel = helstrom(rho0, rho1, PriorPair(joint0 / total, joint1 / total))
    effects = (hel.projector_plus, hel.projector_minus)
    return _outcome_row(rho0, effects), _outcome_row(rho1, effects)


def _binary_helstrom_protocol(name: str, rho0: np.ndarray, rho1: np.ndarray) -> Protocol:
    """One Helstrom measurement on the outputs, scored by ``helstrom_psucc`` of the same outputs."""
    return Protocol(
        name=name,
        stage_tables=(np.array(_posterior_helstrom_rows(rho0, rho1, 0.5, 0.5)),),
        decisions=np.array([0, 1]),
        analytic_psucc=helstrom_psucc(rho0, rho1),
    )


def _pure_branch_effects(state0: np.ndarray | None, state1: np.ndarray | None) -> tuple:
    """Guess-0 / guess-1 effects for a feedback branch holding two conditional pure states.

    When only one hypothesis can reach the branch, its projector pins the
    guess; otherwise the equal-prior Helstrom measurement is used.  On
    coinciding states the measurement is balanced so each hypothesis
    succeeds with probability 1/2, matching the per-branch value the
    strategy assigns (any measurement is optimal there, but an asymmetric
    one would simulate a different protocol).
    """
    if state0 is None and state1 is None:
        raise ValueError("branch unreachable under both hypotheses")
    if state1 is None:
        p = projector(state0)
        return p, np.eye(2, dtype=complex) - p
    if state0 is None:
        p = projector(state1)
        return np.eye(2, dtype=complex) - p, p
    cross = np.outer(state0, state1)
    cross = cross - cross.T
    if float(np.sum(np.abs(cross) ** 2)) < 1e-24:
        perp = np.array([-np.conj(state0[1]), np.conj(state0[0])])
        return projector((state0 + perp) / math.sqrt(2.0)), projector((state0 - perp) / math.sqrt(2.0))
    hel = helstrom(projector(state0), projector(state1))
    return hel.projector_plus, hel.projector_minus


def _branch_row(state: np.ndarray | None, effects: tuple) -> list[float]:
    if state is None:
        return list(UNREACHABLE_ROW)
    return [float(np.vdot(state, e @ state).real) for e in effects]


def feedback_protocol(pair: ChannelPair, x: float, alpha: float) -> Protocol:
    """Environment measured in the tilted basis, then the conditional system state."""
    br0 = feedback_conditional_states(pair.channel0, x, alpha)
    br1 = feedback_conditional_states(pair.channel1, x, alpha)
    env_table = np.array([[p for _, p in br0], [p for _, p in br1]])
    system_table = np.empty((2, 2, 2))
    for e, ((s0, _), (s1, _)) in enumerate(zip(br0, br1)):
        if s0 is None and s1 is None:
            system_table[0, e] = system_table[1, e] = UNREACHABLE_ROW
            continue
        effects = _pure_branch_effects(s0, s1)
        system_table[0, e] = _branch_row(s0, effects)
        system_table[1, e] = _branch_row(s1, effects)
    decisions = np.array([[0, 1], [0, 1]])
    return Protocol(
        name="feedback",
        stage_tables=(env_table, system_table),
        decisions=decisions,
        analytic_psucc=feedback_psucc(pair, x, alpha),
    )


def _two_stage_protocol(
    name: str, rho0: np.ndarray, rho1: np.ndarray, first_effects: tuple, analytic: float
) -> Protocol:
    """First copy measured with ``first_effects``, second by posterior-weighted Helstrom."""
    first = np.array([_outcome_row(rho0, first_effects), _outcome_row(rho1, first_effects)])
    second = np.empty((2, 2, 2))
    for m in range(2):
        second[:, m] = _posterior_helstrom_rows(rho0, rho1, 0.5 * first[0, m], 0.5 * first[1, m])
    return Protocol(
        name=name,
        stage_tables=(first, second),
        decisions=np.array([[0, 1], [0, 1]]),
        analytic_psucc=analytic,
    )


def adaptive_forward_protocol(pair: ChannelPair, x: float) -> Protocol:
    """First copy measured by the equal-prior Helstrom projectors, posterior-reweighted second."""
    rho0, rho1 = pair.output_pair(x)
    hel = helstrom(rho0, rho1)
    effects = (hel.projector_plus, hel.projector_minus)
    return _two_stage_protocol("adaptive", rho0, rho1, effects, adaptive_forward_psucc(pair, x))


def backward_adaptive_protocol(pair: ChannelPair, x: float) -> Protocol:
    """Optimized two-outcome first effect, posterior-reweighted second step."""
    rho0, rho1 = pair.output_pair(x)
    povm, value = backward_adaptive_measurement(pair, x, (rho0, rho1))
    return _two_stage_protocol("backward", rho0, rho1, tuple(povm.effects), value)


def adaptive_feedback_protocol(pair: ChannelPair) -> Protocol:
    """Both copies with environment feedback at the single-copy optimum.

    Four stages: environment of copy one, conditional system measurement,
    environment of copy two, then the posterior-reweighted optimal
    measurement on the second conditional state.
    """
    branches = _balanced_feedback_branches(pair)
    projectors = [(projector(phi0), projector(phi1)) for phi0, _, phi1, _ in branches]
    env1 = np.array([[p0 for _, p0, _, _ in branches], [p1 for _, _, _, p1 in branches]])
    system1 = np.empty((2, 2, 2))
    for e1, ((phi0, _, phi1, _), (proj0, proj1)) in enumerate(zip(branches, projectors)):
        dec = hermitian_eig(proj0 - proj1)
        for h, phi in ((0, phi0), (1, phi1)):
            system1[h, e1] = [abs(np.vdot(dec.vector(k), phi)) ** 2 for k in range(2)]

    # the second environment outcome e2 does not depend on (e1, k)
    env2 = np.broadcast_to(env1[:, None, None, :], (2, 2, 2, 2)).copy()

    system2 = np.empty((2, 2, 2, 2, 2))
    for e1 in range(2):
        for k in range(2):
            like0, like1 = 0.5 * env1[:, e1] * system1[:, e1, k]
            for e2, (_, w0, _, w1) in enumerate(branches):
                system2[:, e1, k, e2] = _posterior_helstrom_rows(*projectors[e2], like0 * w0, like1 * w1)

    decisions = np.broadcast_to(np.array([0, 1]), (2, 2, 2, 2)).copy()
    return Protocol(
        name="adaptive-fb",
        stage_tables=(env1, system1, env2, system2),
        decisions=decisions,
        analytic_psucc=adaptive_feedback_psucc(pair),
    )


def _or_optimum(params: dict, key: str, optimal, *args) -> float:
    """``params[key]``, or the argmax of ``optimal(*args)``, which runs only when the key is missing."""
    value = params.get(key)
    return optimal(*args).params[key] if value is None else value


def _two_shot_entangled(pair: ChannelPair, params: dict) -> Protocol:
    variant = params.get("variant", DEFAULT_VARIANT)
    x = _or_optimum(params, "x", two_shot_entangled_optimal, pair, variant)
    outputs = two_shot_entangled_outputs(pair, variant, x)
    return _binary_helstrom_protocol(f"two-shot-entangled-{variant}", *outputs)


# strategy name -> builder(pair, params); the lambdas look the optimizers up at call
# time, so a patched or traced binding is the one that runs
_BUILDERS = {
    "one-shot": lambda pair, p: _binary_helstrom_protocol(
        "one-shot", *pair.output_pair(_or_optimum(p, "x", one_shot_optimal, pair))
    ),
    "side-ent": lambda pair, p: _binary_helstrom_protocol(
        "side-ent", *side_ent_outputs(pair, _or_optimum(p, "y", side_ent_optimal, pair))
    ),
    "feedback": lambda pair, p: feedback_protocol(pair, **feedback_params(pair, p.get("x"), p.get("alpha"))),
    "two-shot-entangled": _two_shot_entangled,
    "two-shot-product": lambda pair, p: _binary_helstrom_protocol(
        "two-shot-product", *two_shot_product_outputs(pair, _or_optimum(p, "x", two_shot_product_optimal, pair))
    ),
    "adaptive": lambda pair, p: adaptive_forward_protocol(
        pair, _or_optimum(p, "x", adaptive_forward_optimal, pair)
    ),
    "adaptive-fb": lambda pair, p: adaptive_feedback_protocol(pair),
    # the forward optimum x, not the backward one: see build_protocol
    "backward": lambda pair, p: backward_adaptive_protocol(
        pair, _or_optimum(p, "x", adaptive_forward_optimal, pair)
    ),
    "sequential": lambda pair, p: _binary_helstrom_protocol(
        "sequential", *sequential_outputs(pair, _or_optimum(p, "x", sequential_two_shot_optimal, pair))
    ),
}
MC_STRATEGIES = tuple(_BUILDERS)


def build_protocol(strategy: str, pair: ChannelPair, params: dict | None = None) -> Protocol:
    """Protocol for a named strategy; omitted parameters default to the optimum.

    One exception: without ``x``, ``backward`` simulates at the forward
    optimum x of ``adaptive_forward_optimal``, not at the backward optimum
    that ``backward_adaptive_optimal`` reports: at (1.2, 0.4) that search
    takes about 21 ms, six times the 3.4 ms of the default protocol (medians
    of 30 calls, 2-core x86, numpy 2.4, one BLAS thread; one pair gains
    nothing from the cell-batched search).  There the point query reports
    0.866031 at x = 0.98354, while the default protocol's analytic value is
    0.865819 at x = 1.
    """
    builder = _BUILDERS.get(strategy)
    if builder is None:
        raise ValueError(
            f"strategy {strategy!r} cannot be simulated; choose one of {', '.join(MC_STRATEGIES)}"
        )
    return builder(pair, params or {})
