"""Small complex linear algebra layer for 2x2 and 4x4 operators.

Everything downstream (channels, measurements, strategies) funnels through the
handful of primitives defined here, so the determinism conventions live here
too: eigenvalues are reported in descending order, exact ties are broken by a
lexicographic comparison of the phase-fixed eigenvector components, and every
eigenvector is rescaled so that its first component above ``PHASE_TOL`` is
real and positive.  Two-qubit matrices use the basis order
|00>, |01>, |10>, |11| = kron(first, second) throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
RECON_TOL = 1e-10
UNIT_TRACE_TOL = 1e-12
STATE_NORM_TOL = 1e-12
DENSITY_HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PHASE_TOL = 1e-12

SUPPORTED_DIMS = (2, 4)


def as_complex_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray of dimension 2 or 4."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] not in SUPPORTED_DIMS:
        raise ValueError(f"{name} dimension must be one of {SUPPORTED_DIMS}, got {a.shape[0]}")
    return a


def max_asymmetry(m: np.ndarray) -> float:
    """Largest entrywise deviation |m - m^dagger|."""
    a = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(a - a.conj().T)))


def check_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(m, name)
    asym = max_asymmetry(a)
    if asym > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: max asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return a


def check_density_matrix(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    a = as_complex_matrix(rho, name)
    asym = max_asymmetry(a)
    if asym > DENSITY_HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: max asymmetry {asym:.3e}")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > UNIT_TRACE_TOL:
        raise ValueError(f"{name} trace deviates from 1 by {abs(tr - 1.0):.3e}")
    lo = float(np.min(np.linalg.eigvalsh(0.5 * (a + a.conj().T))))
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} has negative eigenvalue {lo:.3e}")
    return a


def check_pure_state(v: np.ndarray, name: str = "state vector") -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] not in SUPPORTED_DIMS:
        raise ValueError(f"{name} must be a vector of length 2 or 4, got shape {a.shape}")
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"{name} norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return a


def projector(v: np.ndarray) -> np.ndarray:
    """|v><v| for a (not necessarily validated) state vector."""
    a = np.asarray(v, dtype=complex)
    return np.outer(a, a.conj())


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` are real and descending; column ``i`` of ``eigenvectors``
    is the unit eigenvector for ``eigenvalues[i]``, phase-fixed so its first
    component above ``PHASE_TOL`` is real positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def vector(self, i: int) -> np.ndarray:
        return self.eigenvectors[:, i]


def _phase_fix(v: np.ndarray) -> np.ndarray:
    for c in v:
        if abs(c) > PHASE_TOL:
            return v * (c.conjugate() / abs(c))
    return v


def _lex_key(v: np.ndarray) -> tuple:
    return tuple(np.round(v.real, 12)) + tuple(np.round(v.imag, 12))


def hermitian_eig(m: np.ndarray) -> EigenDecomposition:
    """Deterministic spectral decomposition of a Hermitian matrix.

    Rejects non-Hermitian input (beyond ``HERMITICITY_TOL``) with a
    diagnostic naming the maximal asymmetry.  Exactly equal eigenvalues are
    ordered by descending lexicographic comparison of the phase-fixed
    eigenvector components, so the output is a pure function of the input bits.
    """
    a = check_hermitian(m)
    h = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    cols = [_phase_fix(vecs[:, i].copy()) for i in range(vecs.shape[1])]
    # exact-tie groups: reorder columns lexicographically for determinism
    i = 0
    n = len(vals)
    while i < n:
        j = i + 1
        while j < n and vals[j] == vals[i]:
            j += 1
        if j - i > 1:
            cols[i:j] = sorted(cols[i:j], key=_lex_key, reverse=True)
        i = j
    vecs = np.column_stack(cols)
    recon = (vecs * vals) @ vecs.conj().T
    err = float(np.max(np.abs(recon - h)))
    if err > RECON_TOL:
        raise ArithmeticError(f"eigendecomposition reconstruction error {err:.3e} exceeds {RECON_TOL:.1e}")
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    a = check_hermitian(m)
    return float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (a + a.conj().T)))))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two single-qubit operators."""
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.shape != (2, 2) or bm.shape != (2, 2):
        raise ValueError(f"tensor expects two 2x2 factors, got {am.shape} and {bm.shape}")
    return np.kron(am, bm)


def partial_trace(m: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace a two-qubit operator down to one qubit.

    ``subsystem`` names the qubit that is traced out: ``"first"`` keeps the
    second tensor factor, ``"second"`` keeps the first.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got shape {a.shape}")
    r = a.reshape(2, 2, 2, 2)  # indices: first, second, first', second'
    if subsystem == "first":
        return np.einsum("isit->st", r)
    if subsystem == "second":
        return np.einsum("fsgs->fg", r)
    raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")


def matrix_exp_skew(h: np.ndarray) -> np.ndarray:
    """Unitary exp(-i h) for Hermitian h, via its eigendecomposition."""
    dec = hermitian_eig(h)
    phases = np.exp(-1j * dec.eigenvalues)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T
