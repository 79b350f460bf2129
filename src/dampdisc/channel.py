"""Single-qubit amplitude damping channel in all the forms used downstream.

The channel is parametrized by an angle ``eta`` in [0, pi/2]: an excitation
survives with amplitude cos(eta), so the decay probability is sin(eta)**2.
Qubit basis is |0> (ground), |1> (excited); two-qubit basis |00>, |01>, |10>,
|11> = kron(first, second).  In the dilation picture the system is the first
tensor factor, the environment (prepared in |0>) the second.  The Kraus map
is the single source of truth for every output state; the dilation route is
kept as an independent cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_density_matrix, projector, tensor

KRAUS_COMPLETENESS_TOL = 1e-12

TWO_SHOT_VARIANTS = ("odd", "even")
DEFAULT_VARIANT = TWO_SHOT_VARIANTS[0]  # the entangled two-probe input when none is named


@dataclass(frozen=True)
class KrausPair:
    """Two Kraus operators forming a trace-preserving qubit map."""

    k0: np.ndarray
    k1: np.ndarray

    def __post_init__(self) -> None:
        total = self.k0.conj().T @ self.k0 + self.k1.conj().T @ self.k1
        err = float(np.max(np.abs(total - np.eye(2))))
        if err > KRAUS_COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated by {err:.3e}")

    def __iter__(self):
        return iter((self.k0, self.k1))


@dataclass(frozen=True)
class InputState:
    """Probe ket sqrt(1-x)|0> + exp(-i phi) sqrt(x)|1>.

    ``x`` is the excited-state population, ``phi`` a relative phase that no
    strategy needs to tune (the channel is symmetric about the z axis), kept
    for completeness and defaulted to 0.
    """

    x: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"x must lie in [0, 1], got {self.x}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    def ket(self) -> np.ndarray:
        return np.array(
            [math.sqrt(1.0 - self.x), cmath.exp(-1j * self.phi) * math.sqrt(self.x)]
        )


@dataclass(frozen=True)
class SideEntangledInput:
    """Reference-probe ket sqrt(1-y)|01> + sqrt(y)|10>.

    The first qubit is an idle reference, the second enters the channel.
    ``y`` is the weight on the branch whose excitation stays outside.
    """

    y: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.y <= 1.0:
            raise ValueError(f"y must lie in [0, 1], got {self.y}")

    def ket(self) -> np.ndarray:
        return np.array([0.0, math.sqrt(1.0 - self.y), math.sqrt(self.y), 0.0], dtype=complex)


def two_shot_entangled_ket(variant: str, x: float) -> np.ndarray:
    """Two-probe entangled input: one excitation shared (odd) or zero-or-two (even)."""
    if variant not in TWO_SHOT_VARIANTS:
        raise ValueError(f"variant must be one of {TWO_SHOT_VARIANTS}, got {variant!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    a, b = math.sqrt(1.0 - x), math.sqrt(x)
    if variant == "odd":
        return np.array([0.0, a, b, 0.0], dtype=complex)
    return np.array([a, 0.0, 0.0, b], dtype=complex)


@dataclass(frozen=True)
class DampingChannel:
    """Energy-loss channel with decay probability sin(eta)**2."""

    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= math.pi / 2:
            raise ValueError(f"eta must lie in [0, pi/2], got {self.eta}")

    def dilation_unitary(self) -> np.ndarray:
        """4x4 system+environment unitary: identity outside the one-excitation block."""
        c, s = math.cos(self.eta), math.sin(self.eta)
        return np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, c, -1j * s, 0.0],
                [0.0, -1j * s, c, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )

    def kraus(self) -> KrausPair:
        c, s = math.cos(self.eta), math.sin(self.eta)
        k0 = np.array([[1.0, 0.0], [0.0, c]], dtype=complex)
        k1 = np.array([[0.0, -1j * s], [0.0, 0.0]], dtype=complex)
        return KrausPair(k0=k0, k1=k1)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Map a 2x2 density matrix through the channel."""
        r = check_density_matrix(rho, name="channel input")
        if r.shape != (2, 2):
            raise ValueError(f"apply expects a 2x2 density matrix, got shape {r.shape}")
        k0, k1 = self.kraus()
        return k0 @ r @ k0.conj().T + k1 @ r @ k1.conj().T

    def output_state(self, inp: InputState) -> np.ndarray:
        return self.apply(projector(inp.ket()))

    def side_entangled_output(self, inp: SideEntangledInput) -> np.ndarray:
        """Channel on the second qubit of the reference-probe pair; reference idles."""
        rho = projector(inp.ket())
        eye = np.eye(2, dtype=complex)
        out = np.zeros((4, 4), dtype=complex)
        for k in self.kraus():
            op = tensor(eye, k)
            out += op @ rho @ op.conj().T
        return out

    def two_shot_entangled_output(self, variant: str, x: float) -> np.ndarray:
        """Channel applied independently to both qubits of an entangled probe pair."""
        rho = projector(two_shot_entangled_ket(variant, x))
        kp = self.kraus()
        out = np.zeros((4, 4), dtype=complex)
        for ka in kp:
            for kb in kp:
                op = tensor(ka, kb)
                out += op @ rho @ op.conj().T
        return out


def kraus_from_dilation(u: np.ndarray) -> KrausPair:
    """Extract the Kraus pair <e|U|0> from a 4x4 dilation unitary.

    Row/column index convention: entry (2*s' + e, 2*s) maps system s with the
    environment in |0> to system s' with the environment in |e>.
    """
    a = np.asarray(u, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"dilation unitary must be 4x4, got shape {a.shape}")
    k0 = np.array([[a[0, 0], a[0, 2]], [a[2, 0], a[2, 2]]])
    k1 = np.array([[a[1, 0], a[1, 2]], [a[3, 0], a[3, 2]]])
    return KrausPair(k0=k0, k1=k1)
