"""Minimum-error two-hypothesis discrimination primitives.

Contains the optimal binary measurement for arbitrary priors, the pure-state
overlap bound, derivative-free scalar maximizers (one objective, or a batch of
cells, where one cell runs the scalar loop) and a deterministic Monte Carlo
engine for finite measurement trees.  All optimizers are grid + golden-section:
the objectives downstream involve trace norms, which are only piecewise smooth
(kinks at eigenvalue crossings), so derivative-based methods are the wrong tool.

The engine draws the counts of each tree node's children from one
multinomial, which is the distribution that simulating every trial on its own
gives, so its cost depends on the size of the tree and not on the number of
trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import check_density_matrix, check_pure_state, hermitian_eig, projector, trace_norm

PRIOR_SUM_TOL = 1e-12
POVM_SUM_TOL = 1e-10
POVM_EIGENVALUE_SLACK = 1e-10
OUTCOME_PROB_TOL = 1e-9

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# cells per grid-scan call of maximize_scalar_cells.  A 4x4 objective on a
# 513-point grid then takes about half a megabyte per array: the ten default
# presets peak at 35 MB resident, against 39 MB with 25-cell chunks and 185 MB
# with the whole 625-cell grid in one call
CELL_CHUNK = 8

# grid points whose cheap scan value lies within this of the scan's grid
# maximum are rescored with the exact objective.  A scan that agrees with the
# objective within half of it leaves the grid argmax, ties included, unchanged
SCAN_SLACK = 1e-12

# numpy draws counts as int64
MAX_TRIALS = 2**63 - 1


@dataclass(frozen=True)
class PriorPair:
    """Prior probabilities of the two hypotheses."""

    p0: float
    p1: float

    def __post_init__(self) -> None:
        if self.p0 < 0.0 or self.p1 < 0.0:
            raise ValueError(f"priors must be nonnegative, got ({self.p0}, {self.p1})")
        if abs(self.p0 + self.p1 - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"priors must sum to 1, got {self.p0 + self.p1!r}")


EQUAL_PRIORS = PriorPair(0.5, 0.5)


@dataclass(frozen=True)
class HelstromResult:
    """Optimal binary measurement: success probability plus its projectors."""

    psucc: float
    projector_plus: np.ndarray
    projector_minus: np.ndarray


def helstrom(rho0: np.ndarray, rho1: np.ndarray, priors: PriorPair = EQUAL_PRIORS) -> HelstromResult:
    """Minimum-error measurement between two density matrices.

    Projects onto the nonnegative / negative eigenspaces of
    p0*rho0 - p1*rho1; zero eigenvalues are assigned to the plus projector
    (the success probability does not care, golden tests do).
    """
    r0 = check_density_matrix(rho0, name="rho0")
    r1 = check_density_matrix(rho1, name="rho1")
    if r0.shape != r1.shape:
        raise ValueError(f"dimension mismatch: {r0.shape} vs {r1.shape}")
    dec = hermitian_eig(priors.p0 * r0 - priors.p1 * r1)
    dim = r0.shape[0]
    plus = np.zeros((dim, dim), dtype=complex)
    minus = np.zeros((dim, dim), dtype=complex)
    for i, lam in enumerate(dec.eigenvalues):
        target = plus if lam >= 0.0 else minus
        target += projector(dec.vector(i))
    psucc = float(
        (priors.p0 * np.trace(r0 @ plus) + priors.p1 * np.trace(r1 @ minus)).real
    )
    return HelstromResult(psucc=psucc, projector_plus=plus, projector_minus=minus)


def helstrom_psucc(rho0: np.ndarray, rho1: np.ndarray, priors: PriorPair = EQUAL_PRIORS) -> float:
    """Success probability alone: (1 + ||p0 rho0 - p1 rho1||_1) / 2."""
    r0 = check_density_matrix(rho0, name="rho0")
    r1 = check_density_matrix(rho1, name="rho1")
    if r0.shape != r1.shape:
        raise ValueError(f"dimension mismatch: {r0.shape} vs {r1.shape}")
    return 0.5 * (1.0 + trace_norm(priors.p0 * r0 - priors.p1 * r1))


def pure_state_psucc(a: np.ndarray, b: np.ndarray) -> float:
    """Equal-prior optimum for two pure states: (1 + sqrt(1 - |<a|b>|^2)) / 2.

    1 - |<a|b>|^2 is evaluated as sum_{i<j} |a_i b_j - a_j b_i|^2, which is
    the same quantity for unit vectors but does not cancel catastrophically
    when the states nearly coincide.
    """
    va = check_pure_state(a, name="a")
    vb = check_pure_state(b, name="b")
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    cross = np.outer(va, vb)
    cross = cross - cross.T
    gram = 0.5 * float(np.sum(np.abs(cross) ** 2))
    return 0.5 * (1.0 + math.sqrt(min(1.0, gram)))


def _golden_section(f: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def maximize_scalar(
    f: Callable,
    lo: float,
    hi: float,
    *,
    grid_points: int = 257,
    tol: float = 1e-9,
    scan: Callable | None = None,
) -> tuple[float, float]:
    """Deterministic scalar maximization: coarse grid, then golden refinement.

    ``f`` maps an array of arguments to the array of their values; it is
    called once on the whole grid, then on one-point arrays.  Ties go to the
    smallest argument (a constant function returns ``lo``).

    ``scan``, when given, is a cheaper form of ``f`` that scans the grid in
    its place.  The grid points it scores within ``SCAN_SLACK`` of its
    maximum are rescored with ``f``, and the refinement calls only ``f``; a
    scan that agrees with ``f`` within ``SCAN_SLACK / 2`` therefore returns
    exactly what ``f`` alone returns.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_points)
    if scan is None:
        near = np.arange(grid_points)
        ys = np.asarray(f(xs), dtype=float)
    else:
        cheap = np.asarray(scan(xs), dtype=float)
        near = np.flatnonzero(cheap >= cheap.max() - SCAN_SLACK)
        ys = np.asarray(f(xs[near]), dtype=float)
    k = int(np.argmax(ys))
    i = int(near[k])
    best_x, best_y = float(xs[i]), float(ys[k])
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, grid_points - 1)])
    if b > a:
        x, y = _golden_section(lambda t: float(f(np.array([t]))[0]), a, b, tol)
        # strict improvement only, so plateaus keep the leftmost grid point
        if y > best_y:
            best_x, best_y = x, y
    return best_x, best_y


def maximize_scalar_cells(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_cells: int,
    lo: float,
    hi: float,
    *,
    grid_points: int = 257,
    tol: float = 1e-9,
    scan: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``maximize_scalar`` for many independent objectives at once.

    ``f(idx, xs)`` evaluates the objectives of the cells ``idx`` (an index
    array of shape (m,), which may repeat a cell) at ``xs``, which broadcasts
    against shape (m, 1), and returns an (m, k) array.  The batch size alone
    picks the loop: one cell runs ``maximize_scalar`` on its row, with ``idx``
    the view ``slice(0, 1)``.  More cells scan the grid ``CELL_CHUNK`` cells
    at a time; the golden refinement then runs on all cells together, each on
    its own bracket, and a cell drops out as soon as its bracket is shorter
    than ``tol``.  Brackets differ in length (an argmax on the edge of the
    grid gives one grid step, an interior one two), so cells stop after
    different iteration counts.  Each cell ends with the (x, value) that
    ``maximize_scalar`` returns for its objective alone, ``scan`` (same
    signature as ``f``) included.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if n_cells == 1:
        one = slice(0, 1)  # a view: cheaper to take in every call than an index array

        def row(g):
            return None if g is None else lambda t: g(one, t[None, :])[0]
        x, y = maximize_scalar(row(f), lo, hi, grid_points=grid_points, tol=tol, scan=row(scan))
        return np.array([x]), np.array([y])
    xs = np.linspace(lo, hi, grid_points)
    best_i = np.empty(n_cells, dtype=np.intp)
    best_y = np.empty(n_cells)
    near_cells, near_points = [], []
    for start in range(0, n_cells, CELL_CHUNK):
        idx = np.arange(start, min(start + CELL_CHUNK, n_cells))
        if scan is None:
            ys = np.asarray(f(idx, xs[None, :]), dtype=float)
            best_i[idx] = np.argmax(ys, axis=1)
            best_y[idx] = ys[np.arange(idx.size), best_i[idx]]
        else:
            cheap = np.asarray(scan(idx, xs[None, :]), dtype=float)
            rows, points = np.nonzero(cheap >= cheap.max(axis=1, keepdims=True) - SCAN_SLACK)
            near_cells.append(idx[rows])
            near_points.append(points)
    if scan is not None:
        # f on the near points, at most as many per call as a grid chunk has
        # (a flat objective makes every grid point near); np.nonzero lists them
        # by cell, then by grid index, so the first maximum of a cell is its leftmost
        cells, points = np.concatenate(near_cells), np.concatenate(near_points)
        block = CELL_CHUNK * grid_points
        ys = np.concatenate(
            [
                np.asarray(f(cells[k : k + block], xs[points[k : k + block], None]), dtype=float)[:, 0]
                for k in range(0, cells.size, block)
            ]
        )
        firsts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
        top = np.flatnonzero(ys == np.maximum.reduceat(ys, firsts)[cells])
        top = top[np.r_[True, cells[top[1:]] != cells[top[:-1]]]]
        best_i, best_y = points[top], ys[top]
    best_x = xs[best_i]
    a = xs[np.maximum(best_i - 1, 0)]
    b = xs[np.minimum(best_i + 1, grid_points - 1)]

    # _golden_section on every cell, one masked step per loop pass
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fcd = np.asarray(f(np.arange(n_cells), np.stack([c, d], axis=1)), dtype=float)
    fc, fd = fcd[:, 0].copy(), fcd[:, 1].copy()
    active = np.flatnonzero(b - a > tol)
    while active.size:
        left = fc[active] >= fd[active]
        lc, rc = active[left], active[~left]
        b[lc], d[lc], fd[lc] = d[lc], c[lc], fc[lc]
        c[lc] = b[lc] - GOLDEN * (b[lc] - a[lc])
        a[rc], c[rc], fc[rc] = c[rc], d[rc], fd[rc]
        d[rc] = a[rc] + GOLDEN * (b[rc] - a[rc])
        new = np.asarray(f(active, np.where(left, c[active], d[active])[:, None]), dtype=float)[:, 0]
        fc[lc] = new[left]
        fd[rc] = new[~left]
        active = active[b[active] - a[active] > tol]
    use_c = fc >= fd
    x = np.where(use_c, c, d)
    y = np.where(use_c, fc, fd)
    # strict improvement only, so plateaus keep the leftmost grid point
    better = y > best_y
    return np.where(better, x, best_x), np.where(better, y, best_y)


@dataclass(frozen=True)
class Povm:
    """Positive effects summing to the identity."""

    effects: tuple

    def __post_init__(self) -> None:
        mats = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        if not mats:
            raise ValueError("POVM needs at least one effect")
        dim = mats[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for e in mats:
            if e.shape != (dim, dim):
                raise ValueError(f"effect shape {e.shape} does not match dimension {dim}")
            asym = float(np.max(np.abs(e - e.conj().T)))
            if asym > POVM_SUM_TOL:
                raise ValueError(f"effect is not Hermitian: asymmetry {asym:.3e}")
            vals = np.linalg.eigvalsh(0.5 * (e + e.conj().T))
            if vals[0] < -POVM_EIGENVALUE_SLACK or vals[-1] > 1.0 + POVM_EIGENVALUE_SLACK:
                raise ValueError(
                    f"effect eigenvalues [{vals[0]:.3e}, {vals[-1]:.3e}] outside [0, 1]"
                )
            total += e
        err = float(np.max(np.abs(total - np.eye(dim))))
        if err > POVM_SUM_TOL:
            raise ValueError(f"effects sum deviates from identity by {err:.3e}")
        object.__setattr__(self, "effects", mats)

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


@dataclass(frozen=True, eq=False)
class Protocol:
    """Finite measurement tree for a uniformly random binary hypothesis.

    ``stage_tables[s]`` has shape (2, k_0, ..., k_{s-1}, k_s): conditional
    outcome distribution of stage s given the hypothesis and all earlier
    outcomes.  ``decisions`` maps a full outcome history to the guess.
    """

    name: str
    stage_tables: tuple
    decisions: np.ndarray
    analytic_psucc: float

    def __post_init__(self) -> None:
        tables = tuple(np.asarray(t, dtype=float) for t in self.stage_tables)
        if not tables:
            raise ValueError("protocol needs at least one stage")
        shape: tuple = ()
        for s, t in enumerate(tables):
            if t.shape[: s + 1] != (2,) + shape:
                raise ValueError(f"stage {s} table shape {t.shape} inconsistent with history {shape}")
            if t.ndim != s + 2:
                raise ValueError(f"stage {s} table must have rank {s + 2}, got {t.ndim}")
            if np.min(t) < -1e-12:
                raise ValueError(f"stage {s} has negative outcome probability {np.min(t):.3e}")
            row_sums = t.sum(axis=-1)
            if np.max(np.abs(row_sums - 1.0)) > OUTCOME_PROB_TOL:
                raise ValueError(f"stage {s} outcome probabilities do not sum to 1")
            shape = shape + (t.shape[-1],)
        decisions = np.asarray(self.decisions, dtype=np.int64)
        if decisions.shape != shape:
            raise ValueError(f"decision table shape {decisions.shape}, expected {shape}")
        if not np.isin(decisions, (0, 1)).all():
            raise ValueError("decisions must be 0 or 1")
        object.__setattr__(self, "stage_tables", tables)
        object.__setattr__(self, "decisions", decisions)

    @property
    def n_stages(self) -> int:
        return len(self.stage_tables)


def exact_psucc(protocol: Protocol) -> float:
    """Exact success probability of the tree by summing all outcome paths."""
    total = 0.0
    for h in (0, 1):
        acc = np.array(1.0)
        for table in protocol.stage_tables:
            acc = acc[..., None] * table[h]
        total += 0.5 * float(acc[protocol.decisions == h].sum())
    return total


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    stderr: float
    trials: int
    n_correct: int


def monte_carlo_psucc(
    protocol: Protocol, trials: int, seed: int, workers: int = 1
) -> MonteCarloEstimate:
    """Estimate the success probability by simulating the measurement tree.

    Given how many trials reach a node of the tree, the counts of its
    children are multinomial, so each hypothesis draws one multinomial per
    stage over all histories at once.  ``n_correct`` then has the
    distribution that ``trials`` independent runs of the tree give, at a cost
    that does not grow with ``trials``.  The estimate is a pure function of
    (seed, trials).  ``workers`` selects nothing; it stays so that callers
    that pass it keep running.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}], got {trials}")
    # validation lets rows sum to within OUTCOME_PROB_TOL of 1 and hold
    # entries down to -1e-12, both of which multinomial rejects
    tables = []
    for table in protocol.stage_tables:
        rows = np.clip(table, 0.0, None)
        tables.append(rows / rows.sum(axis=-1, keepdims=True))
    rng = np.random.default_rng(seed)
    n1 = int(rng.binomial(trials, 0.5))
    n_correct = 0
    for h, n in ((0, trials - n1), (1, n1)):
        counts = n
        for rows in tables:
            counts = rng.multinomial(counts, rows[h])
        n_correct += int(counts[protocol.decisions == h].sum())
    estimate = n_correct / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloEstimate(estimate=estimate, stderr=stderr, trials=trials, n_correct=n_correct)
